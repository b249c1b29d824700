"""Exact p-adic valuations, angular components, and residue enumeration.

All field elements are exact rationals viewed inside Q_p, so the valuation
and the angular-component maps are computed exactly, with no truncation or
precision management.  The uniformizer is the integer p itself.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd
from typing import Iterator, Union

from .errors import BudgetExceeded, FrozenRecord

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


class Prime(FrozenRecord):
    """A verified prime p, the residue field size of Q_p."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self._freeze((p,))

    def __int__(self) -> int:
        return self.p

    def __repr__(self):
        return f"Prime({self.p})"


_SHALLOW = 16  # a valuation up to this is stripped one p at a time


def _strip_deep(x: int, p: int) -> tuple[int, int]:
    """(v, x / p^v) with p^v the largest power of p dividing x != 0.

    Divides by p, p^2, p^4, ... while they divide x, then by the same
    powers in reverse where they still do, so it takes O(log v) big
    divisions, not v of them."""
    squares = []
    power = p
    while True:
        quotient, rest = divmod(x, power)
        if rest:
            break
        x = quotient
        squares.append(power)
        power *= power
    v = (1 << len(squares)) - 1
    for j in range(len(squares) - 1, -1, -1):
        quotient, rest = divmod(x, squares[j])
        if not rest:
            x = quotient
            v += 1 << j
    return v, x


def unit_part(num: int, den: int, p: int) -> tuple[int, int, int]:
    """(v, u, w) with num/den = p^v * u/w and p dividing neither u nor w,
    for num != 0.  The pair num/den need not be in lowest terms.  A unit
    costs one modulo per side; a valuation past _SHALLOW is stripped by
    _strip_deep, so a deep power costs O(log v) divisions, not v."""
    v = 0
    while num % p == 0:
        if v == _SHALLOW:
            e, num = _strip_deep(num, p)
            v += e
            break
        num //= p
        v += 1
    e = 0
    while den % p == 0:
        if e == _SHALLOW:
            f, den = _strip_deep(den, p)
            e += f
            break
        den //= p
        e += 1
    return v - e, num, den


def rational_ord(value: Union[Fraction, int], p: int) -> ExtendedInteger:
    """p-adic valuation of an exact rational; INFINITY iff value == 0."""
    if value == 0:
        return INFINITY
    return unit_part(value.numerator, value.denominator, p)[0]  # an int is num / 1


def rational_ac(value: Union[Fraction, int], p: int, m: int) -> int:
    """m-th angular component of an exact rational: the unit part mod p^m.

    Returns 0 for value == 0.  With value = p^v u/w as in unit_part, w is
    coprime to p, hence invertible mod p^m; the result is computed in ints
    with a single modular inverse.
    """
    if m < 1:
        raise ValueError("angular component depth m must be >= 1")
    if value == 0:
        return 0
    if value.__class__ is not int and value.__class__ is not Fraction:
        value = Fraction(value)
    _, u, w = unit_part(value.numerator, value.denominator, p)
    mod = p**m
    return u * pow(w, -1, mod) % mod


class PAdicPoint(FrozenRecord):
    """An exact rational number viewed as a point of Q_p."""

    __slots__ = ("value", "prime")

    def __init__(self, value: Fraction, prime: Prime):
        self._freeze((Fraction(value), prime))

    def ord(self) -> ExtendedInteger:
        return rational_ord(self.value, self.prime.p)

    def ac(self, m: int) -> "AngularResidue":
        return AngularResidue(m, rational_ac(self.value, self.prime.p, m))

    def __repr__(self):
        return f"PAdicPoint({self.value}, p={self.prime.p})"


class AngularResidue(FrozenRecord):
    """Value of the depth-m angular component map: 0 or a unit mod p^m."""

    __slots__ = ("m", "r")

    def __init__(self, m: int, r: int):
        if m < 1:
            raise ValueError("depth m must be >= 1")
        if not 0 <= r:
            raise ValueError("residue must be nonnegative")
        self._freeze((m, r))

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
