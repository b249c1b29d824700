"""Exact arithmetic in the ring Z[q, q^-1, 1/(1-q^-i)].

Elements are stored as a Laurent polynomial numerator over the rationals
and a multiset of denominator factors (1 - q^-i)^e.  Canonical form cancels
every denominator factor that divides the numerator.  One n-ary sum,
AqElem.sum, adds numerators over the per-index maximum of their
denominators and cancels once; + is its two-part case, and x == y when
the numerator of x - y it builds is zero, which is sound because Laurent
polynomials over Q form an integral domain.

Whether (1 - q^-i) = q^-i (q^i - 1) divides a numerator N = sum n_e q^e is
decided without dividing.  Modulo q^i - 1, q^e is q^(e mod i), for
negative e too because q is a unit, so the remainder of N is
sum_r (sum_{e = r mod i} n_e) q^r with 0 <= r < i.  Those monomials are
independent, so q^i - 1 divides N exactly when every exponent class mod i
sums to 0.  Only then is the quotient Q = N / (1 - q^-i) built, and it
needs no division: comparing coefficients in (1 - q^-i) Q = N gives
Q_e = N_e + Q_(e+i), a running sum down each exponent class from the top
exponent of N to its bottom exponent plus i.  Multiplying by (1 - q^-i)
is likewise N - N q^-i, one pass over the terms.

Canonicalisation runs only where a factor can cancel.  A monomial c q^k
is a unit, so (1 - q^-i) divides N exactly when it divides c q^k N: the
product of a canonical element with a unit, and a negation, keep the
denominator and return the scaled, shifted or negated numerator as it
stands.  Nothing is tried on an element without a denominator, or on a
monomial numerator.  Likewise a negated numerator, and an all-int quotient
or unit product, are stored as they are computed (LaurentPoly._reduced),
without normalising their coefficients again.

Terms are unreduced inside the symbolic engine: an integral's coefficient
products (AqElem._times) cancel nothing, and its final sum (AqElem.sum)
cancels once.  The reduced form of an intermediate coefficient never
shows, and almost every cancellation tried on one would find nothing to
cancel.  The public ring operations return canonical elements.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Union

from .padic import Prime
from .polys import polydiv as _polydiv  # perfbench/tracing.py wraps aqring._polydiv
from .polys import render_powers

Rat = Union[int, Fraction]


class LaurentPoly:
    """Sparse Laurent polynomial in q with exact rational coefficients.

    An integral coefficient is stored as an int, whatever type it came in
    as, and any other as a Fraction, so the ring's sums and products stay
    in int arithmetic as long as the values are integers.  An exponent
    that is not an integer raises ValueError."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, Rat] | None = None):
        clean: dict[int, Rat] = {}
        if coeffs:
            for e, c in coeffs.items():
                if c.__class__ is not int:
                    if c.__class__ is not Fraction:  # Fraction(c) would copy c
                        c = Fraction(c)
                    if c.denominator == 1:
                        c = c.numerator
                if e.__class__ is not int:
                    if e != int(e):
                        raise ValueError(f"exponent {e!r} of q is not an integer")
                    e = int(e)
                if c:
                    clean[e] = c
        self.coeffs = clean

    @classmethod
    def _reduced(cls, coeffs: dict[int, Rat]) -> "LaurentPoly":
        """The polynomial with coeffs already normal (int exponents, nonzero
        int or non-integral Fraction coefficients), unchecked; coeffs is
        shared, never copied."""
        out = object.__new__(cls)
        out.coeffs = coeffs
        return out

    @classmethod
    def const(cls, c: Rat) -> "LaurentPoly":
        return cls({0: c})

    @classmethod
    def monomial(cls, exp: int, c: Rat = 1) -> "LaurentPoly":
        return cls({exp: c})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out[e] + c if e in out else c
        return LaurentPoly(out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._reduced({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        out: dict[int, Fraction] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                c = c1 * c2
                out[e] = out[e] + c if e in out else c
        return LaurentPoly(out)

    def scale(self, c: Rat) -> "LaurentPoly":
        c = Fraction(c)
        if c == 0:
            return LaurentPoly()
        return LaurentPoly({e: cc * c for e, cc in self.coeffs.items()})

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by q^k."""
        return LaurentPoly({e + k: c for e, c in self.coeffs.items()})

    def min_exp(self) -> int:
        return min(self.coeffs)

    def max_exp(self) -> int:
        return max(self.coeffs)

    def divexact(self, other: "LaurentPoly") -> "LaurentPoly | None":
        """Exact quotient self/other, or None when the division is inexact."""
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return LaurentPoly()
        shift = self.min_exp() - other.min_exp()
        num = _dense(self.shift(-self.min_exp()))
        den = _dense(other.shift(-other.min_exp()))
        quot, rem = _polydiv(num, den)
        if quot is None or any(c != 0 for c in rem):
            return None
        return LaurentPoly({i + shift: c for i, c in enumerate(quot)})

    def eval(self, q: Rat) -> Fraction:
        q = Fraction(q)
        total = Fraction(0)
        for e, c in self.coeffs.items():
            total += c * q**e
        return total

    def render(self, var: str = "q") -> str:
        return render_powers(sorted(self.coeffs.items(), reverse=True), var)

    def __repr__(self):
        return f"LaurentPoly({self.render()})"


def _dense(poly: LaurentPoly) -> list[Rat]:
    top = poly.max_exp()
    out = [0] * (top + 1)
    for e, c in poly.coeffs.items():
        out[e] = c
    return out


def _cancel(i: int, num: LaurentPoly) -> LaurentPoly | None:
    """num / (1 - q^-i) for num != 0, or None when (1 - q^-i) does not divide
    num: the exponent-class test, then the running-sum quotient (see the
    module docstring)."""
    coeffs = num.coeffs
    sums = [0] * i
    for e, c in coeffs.items():
        sums[e % i] += c
    if any(sums):
        return None
    # every class sums to 0, so sums starts over as the running sums
    quot = {}
    for e in range(max(coeffs), min(coeffs) + i - 1, -1):
        r = e % i
        if e in coeffs:
            sums[r] += coeffs[e]
        if sums[r]:
            quot[e] = sums[r]
    return _nonzero(quot)


_INT = frozenset((int,))


def _nonzero(coeffs: dict[int, Rat]) -> LaurentPoly:
    """LaurentPoly(coeffs) for int exponents and nonzero coefficients,
    unchecked when every coefficient is an int and so already normal."""
    if _INT.issuperset(map(type, coeffs.values())):
        return LaurentPoly._reduced(coeffs)
    return LaurentPoly(coeffs)


class AqElem:
    """Element of Z[q, q^-1, 1/(1-q^-i)] in canonical rational-function form.

    The denominator is a multiset {i: e} of factors (1 - q^-i)^e; the
    constructor drops e = 0 and raises ValueError for a negative or
    non-integer e and for an index i that is not an integer >= 1.  The
    numerator admits rational coefficients so intermediate constructions
    (prepared linear forms divide by n) stay representable.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: Mapping[int, int] | None = None):
        self.num = num
        self.den = {}
        for i, e in (den or {}).items():
            if int(i) != i or i < 1:
                raise ValueError(
                    f"denominator factor (1-q^-i) has index {i!r}; it must be an integer >= 1"
                )
            i, k = int(i), int(e)
            if k != e or k < 0:
                raise ValueError(
                    f"denominator factor (1-q^-{i}) has multiplicity {e!r};"
                    " it must be an integer >= 0"
                )
            if k:
                self.den[i] = k
        if self.den:
            self._canonicalize()

    @classmethod
    def _reduced(cls, num: LaurentPoly, den: dict[int, int]) -> "AqElem":
        """The element num / den as given, without checking or cancelling;
        den is shared, never copied.  It is canonical when the parts are;
        inside the engine it need not be (see the module docstring), and
        AqElem(x.num, x.den) is x's canonical form."""
        out = object.__new__(cls)
        out.num = num
        out.den = den
        return out

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "AqElem":
        return cls(LaurentPoly())

    @classmethod
    def one(cls) -> "AqElem":
        return cls(LaurentPoly.const(1))

    @classmethod
    def from_rational(cls, c: Rat) -> "AqElem":
        return cls(LaurentPoly.const(c))

    @classmethod
    def q_power(cls, k: int, c: Rat = 1) -> "AqElem":
        """c * q^k."""
        return cls(LaurentPoly.monomial(k, c))

    @classmethod
    def geom(cls, i: int, e: int = 1) -> "AqElem":
        """1 / (1 - q^-i)^e."""
        return cls(LaurentPoly.const(1), {i: e})

    @classmethod
    def sum(cls, parts: Iterable[tuple["AqElem", int, int]]) -> "AqElem":
        """The sum of x * z * q^e over the parts (x, e, z), cancelled once,
        which is where an integral of the symbolic engine cancels.  The
        reduced form reached may differ from a fold's, as factors
        (1 - q^-i) are not coprime."""
        num, den = _common_numerator(parts)
        return cls(LaurentPoly(num), den)

    # -- canonical form ----------------------------------------------------

    def _canonicalize(self):
        if self.num.is_zero():
            self.den = {}
            return
        # a monomial is a unit, so no factor (1 - q^-i) divides it
        changed = len(self.num.coeffs) > 1
        while changed:
            changed = False
            for i in sorted(self.den):
                quot = _cancel(i, self.num)
                if quot is None:
                    continue
                self.num = quot
                self.den[i] -= 1
                if self.den[i] == 0:
                    del self.den[i]
                changed = True
        self.den = dict(sorted(self.den.items()))

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "AqElem":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.num.coeffs:
            return self
        if not self.num.coeffs:
            return other
        return AqElem.sum(((self, 0, 1), (other, 0, 1)))

    __radd__ = __add__

    def __neg__(self) -> "AqElem":
        return AqElem._reduced(-self.num, self.den)

    def __sub__(self, other) -> "AqElem":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "AqElem":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.den and len(other.num.coeffs) == 1:
            return self._times_unit(other.num)
        if not self.den and len(self.num.coeffs) == 1:
            return other._times_unit(self.num)
        product = self._times(other)
        return AqElem(product.num, product.den)

    __rmul__ = __mul__

    def _times(self, other: "AqElem") -> "AqElem":
        """self * other unreduced: the numerators multiplied over the sum of
        the denominator multisets, with nothing cancelled."""
        den = self.den
        if other.den:
            den = dict(den)
            for i, e in other.den.items():
                den[i] = den.get(i, 0) + e
        return AqElem._reduced(self.num * other.num, den)

    def _times_unit(self, unit: LaurentPoly) -> "AqElem":
        """self times the monomial c q^k: the numerator shifted and scaled
        over the same denominator, canonical when self is."""
        ((k, c),) = unit.coeffs.items()
        num = _nonzero({e + k: v * c for e, v in self.num.coeffs.items()})
        return AqElem._reduced(num, self.den)

    def __pow__(self, n: int) -> "AqElem":
        if n < 0:
            raise ValueError("negative powers are not defined in this ring")
        out = AqElem.one()
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        num, _ = _common_numerator(((self, 0, 1), (other, 0, -1)))
        return not any(num.values())

    def __hash__(self):
        raise TypeError("AqElem is unhashable; equality compares over a common denominator")

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def as_rational(self) -> Fraction | None:
        """The value as a plain rational when the element is constant."""
        if self.den:
            return None
        if self.num.is_zero():
            return Fraction(0)
        if set(self.num.coeffs) == {0}:
            return Fraction(self.num.coeffs[0])
        return None

    # -- evaluation and rendering ------------------------------------------

    def eval_at(self, prime: Prime | int) -> Fraction:
        """Exact value at q = p."""
        p = prime.p if isinstance(prime, Prime) else int(prime)
        if p < 2:
            raise ValueError("q must be specialized to an integer >= 2")
        coeffs = self.num.coeffs
        if not coeffs:
            return Fraction(0)
        # sum c_e p^(e - lo) is an int unless a coefficient is a Fraction;
        # then p^lo and each (p^i / (p^i - 1))^e go into one ratio
        lo = min(coeffs)
        top = sum(c * p ** (e - lo) for e, c in coeffs.items())
        num, den = (p**lo, 1) if lo >= 0 else (1, p**-lo)
        for i, e in self.den.items():
            num *= p ** (i * e)
            den *= (p**i - 1) ** e
        return Fraction(top * num, den)

    def render(self) -> str:
        num = self.num.render()
        if not self.den:
            return num
        dens = "".join(
            f"(1-q^-{i})" + (f"^{e}" if e > 1 else "") for i, e in self.den.items()
        )
        if len(self.num.coeffs) > 1:
            num = f"({num})"
        return f"{num} / {dens}"

    def __repr__(self):
        return f"AqElem({self.render()})"


def _times_den(poly: LaurentPoly, den: Mapping[int, int], have: Mapping[int, int]) -> LaurentPoly:
    """poly times the factors (1 - q^-i)^e of den that have lacks, each
    factor as poly - poly q^-i."""
    coeffs = poly.coeffs
    for i, e in den.items():
        for _ in range(e - have.get(i, 0)):
            out = dict(coeffs)
            for ex, c in coeffs.items():
                ex -= i
                out[ex] = out[ex] - c if ex in out else -c
            coeffs = out
    return poly if coeffs is poly.coeffs else LaurentPoly(coeffs)


def _common_numerator(parts: Iterable[tuple[AqElem, int, int]]) -> tuple[dict[int, Rat], dict[int, int]]:
    """The sum of x * z * q^e over the parts (x, e, z) as one numerator,
    zeros kept, over the per-index maximum of their denominators, and that
    denominator.  The numerators are added per distinct denominator (a key
    sorted by index, as unreduced denominators are not sorted dicts), and
    each group is lifted to the maximum once."""
    groups: dict[tuple, dict] = {}
    for x, e, z in parts:
        if not z:
            continue
        acc = groups.setdefault(tuple(sorted(x.den.items())), {})
        for ex, c in x.num.coeffs.items():
            ex += e
            c *= z
            acc[ex] = acc[ex] + c if ex in acc else c
    common: dict[int, int] = {}
    for den in groups:
        for i, e in den:
            if e > common.get(i, 0):
                common[i] = e
    total: dict[int, Rat] = {}
    for den, acc in groups.items():
        for ex, c in _times_den(LaurentPoly._reduced(acc), common, dict(den)).coeffs.items():
            total[ex] = total[ex] + c if ex in total else c
    return total, common


def _coerce(value) -> "AqElem":
    if isinstance(value, AqElem):
        return value
    if isinstance(value, (int, Fraction)):
        return AqElem.from_rational(value)
    return NotImplemented


def aq_add(a: AqElem, b: AqElem) -> AqElem:
    return a + b


def aq_mul(a: AqElem, b: AqElem) -> AqElem:
    return a * b


def aq_eval(a: AqElem, prime: Prime | int) -> Fraction:
    return a.eval_at(prime)
