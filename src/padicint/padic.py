"""Exact p-adic valuations, angular components, and residue enumeration.

All field elements are exact rationals viewed inside Q_p, so the valuation
and the angular-component maps are computed exactly, with no truncation or
precision management.  The uniformizer is the integer p itself.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterator, Union

from .errors import BudgetExceeded

DEFAULT_BUDGET = 10**8


class _Infinity:
    """The top element adjoined to the value group.

    Compares strictly greater than every integer and absorbs addition.
    A single module-level instance, INFINITY, is used everywhere.
    """

    __slots__ = ()

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is INFINITY

    def __gt__(self, other):
        return other is not INFINITY

    def __ge__(self, other):
        return True

    def __eq__(self, other):
        return other is INFINITY

    def __hash__(self):
        return hash("padicint.INFINITY")

    def __add__(self, other):
        return INFINITY

    __radd__ = __add__

    def __repr__(self):
        return "INFINITY"


INFINITY = _Infinity()

ExtendedInteger = Union[int, _Infinity]


def is_prime(p: int) -> bool:
    """Trial-division primality test; ample at desk scale."""
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class Prime:
    """A verified prime p, the residue field size of Q_p."""

    p: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

    def __int__(self) -> int:
        return self.p

    def __repr__(self):
        return f"Prime({self.p})"


def rational_ord(value: Union[Fraction, int], p: int) -> ExtendedInteger:
    """p-adic valuation of an exact rational; INFINITY iff value == 0."""
    if value == 0:
        return INFINITY
    value = Fraction(value)
    v = 0
    num = value.numerator
    while num % p == 0:
        num //= p
        v += 1
    den = value.denominator
    while den % p == 0:
        den //= p
        v -= 1
    return v


def rational_ac(value: Union[Fraction, int], p: int, m: int) -> int:
    """m-th angular component of an exact rational: the unit part mod p^m.

    Returns 0 for value == 0.  After dividing out p^ord, the denominator
    is coprime to p, hence invertible mod p^m; the result is computed with
    a single modular inverse.
    """
    if m < 1:
        raise ValueError("angular component depth m must be >= 1")
    if value == 0:
        return 0
    value = Fraction(value)
    v = rational_ord(value, p)
    unit = value / Fraction(p) ** v
    mod = p**m
    return unit.numerator % mod * pow(unit.denominator, -1, mod) % mod


@dataclass(frozen=True)
class PAdicPoint:
    """An exact rational number viewed as a point of Q_p."""

    value: Fraction
    prime: Prime

    def __post_init__(self):
        object.__setattr__(self, "value", Fraction(self.value))

    def ord(self) -> ExtendedInteger:
        return rational_ord(self.value, self.prime.p)

    def ac(self, m: int) -> "AngularResidue":
        return AngularResidue(m, rational_ac(self.value, self.prime.p, m))

    def __repr__(self):
        return f"PAdicPoint({self.value}, p={self.prime.p})"


@dataclass(frozen=True)
class AngularResidue:
    """Value of the depth-m angular component map: 0 or a unit mod p^m."""

    m: int
    r: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("depth m must be >= 1")
        if not 0 <= self.r:
            raise ValueError("residue must be nonnegative")

    def validate(self, prime: Prime) -> "AngularResidue":
        """Check the residue against a concrete prime: 0 or a unit mod p^m."""
        p = prime.p
        if self.r >= p**self.m:
            raise ValueError(f"residue {self.r} out of range for p^{self.m}")
        if self.r != 0 and gcd(self.r, p) != 1:
            raise ValueError(f"residue {self.r} is neither 0 nor a unit mod {p}")
        return self


def ord_of(x: PAdicPoint) -> ExtendedInteger:
    """Valuation of a point; module-level spelling of PAdicPoint.ord."""
    return x.ord()


def ac_of(x: PAdicPoint, m: int) -> AngularResidue:
    """Angular component of a point at depth m."""
    return x.ac(m)


def enumerate_residues(
    n: int, m: int, prime: Prime, budget: int = DEFAULT_BUDGET
) -> Iterator[tuple[int, ...]]:
    """Yield every element of {0, ..., p^m - 1}^n once, lexicographically.

    Raises BudgetExceeded before yielding anything when p^(n*m) is larger
    than the point budget.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if m < 0:
        raise ValueError("m must be >= 0")
    total = prime.p ** (n * m)
    if total > budget:
        raise BudgetExceeded(
            f"p^(n*m) = {prime.p}^{n * m} exceeds the budget of {budget} points"
        )
    return itertools.product(range(prime.p**m), repeat=n)
