"""Exact arithmetic in the ring Z[q, q^-1, 1/(1-q^-i)].

Elements are stored as a Laurent polynomial numerator over the rationals
and a multiset of denominator factors (1 - q^-i)^e.  Canonical form cancels
every denominator factor that divides the numerator; equality is decided by
cross-multiplying numerators, which is sound because Laurent polynomials
over Q form an integral domain.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Union

from .padic import Prime
from .polys import polydiv as _polydiv  # perfbench/tracing.py wraps aqring._polydiv
from .polys import signed_join

Rat = Union[int, Fraction]


class LaurentPoly:
    """Sparse Laurent polynomial in q with exact rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, Rat] | None = None):
        clean: dict[int, Fraction] = {}
        if coeffs:
            for e, c in coeffs.items():
                c = Fraction(c)
                if c != 0:
                    clean[int(e)] = c
        self.coeffs = clean

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
            out[e] = out.get(e, Fraction(0)) + c
        return LaurentPoly(out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        out: dict[int, Fraction] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, Fraction(0)) + c1 * c2
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
        terms = []
        for e in sorted(self.coeffs, reverse=True):
            c = self.coeffs[e]
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                head = var if e == 1 else f"{var}^{e}"
                body = head if mag == 1 else f"{mag}*{head}"
            terms.append((c < 0, body))
        return signed_join(terms)

    def __repr__(self):
        return f"LaurentPoly({self.render()})"


def _dense(poly: LaurentPoly) -> list[Fraction]:
    top = poly.max_exp()
    out = [Fraction(0)] * (top + 1)
    for e, c in poly.coeffs.items():
        out[e] = c
    return out


class AqElem:
    """Element of Z[q, q^-1, 1/(1-q^-i)] in canonical rational-function form.

    The denominator is a multiset {i: e} of factors (1 - q^-i)^e.  The
    numerator admits rational coefficients so intermediate constructions
    (prepared linear forms divide by n) stay representable.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: Mapping[int, int] | None = None):
        self.num = num
        self.den = {int(i): int(e) for i, e in (den or {}).items() if e > 0}
        for i in self.den:
            if i < 1:
                raise ValueError("denominator factor index must be >= 1")
        self._canonicalize()

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

    # -- canonical form ----------------------------------------------------

    def _canonicalize(self):
        if self.num.is_zero():
            self.den = {}
            return
        changed = True
        while changed:
            changed = False
            for i in sorted(self.den):
                if self.den.get(i, 0) == 0:
                    continue
                # (1 - q^-i) = q^-i (q^i - 1), so cancelling one factor
                # multiplies the numerator by q^i after exact division.
                factor = LaurentPoly({i: 1, 0: -1})  # q^i - 1
                quot = self.num.divexact(factor)
                if quot is not None:
                    self.num = quot.shift(i)
                    self.den[i] -= 1
                    if self.den[i] == 0:
                        del self.den[i]
                    changed = True
        self.den = dict(sorted(self.den.items()))

    def den_poly(self) -> LaurentPoly:
        out = LaurentPoly.const(1)
        for i, e in self.den.items():
            factor = LaurentPoly({0: 1, -i: -1})  # 1 - q^-i
            for _ in range(e):
                out = out * factor
        return out

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "AqElem":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        merged = dict(self.den)
        for i, e in other.den.items():
            merged[i] = max(merged.get(i, 0), e)
        a = self.num
        for i, e in merged.items():
            extra = e - self.den.get(i, 0)
            for _ in range(extra):
                a = a * LaurentPoly({0: 1, -i: -1})
        b = other.num
        for i, e in merged.items():
            extra = e - other.den.get(i, 0)
            for _ in range(extra):
                b = b * LaurentPoly({0: 1, -i: -1})
        return AqElem(a + b, merged)

    __radd__ = __add__

    def __neg__(self) -> "AqElem":
        return AqElem(-self.num, self.den)

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
        merged = dict(self.den)
        for i, e in other.den.items():
            merged[i] = merged.get(i, 0) + e
        return AqElem(self.num * other.num, merged)

    __rmul__ = __mul__

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
        return self.num * other.den_poly() == other.num * self.den_poly()

    def __hash__(self):
        raise TypeError("AqElem is unhashable; equality is cross-multiplied")

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def as_rational(self) -> Fraction | None:
        """The value as a plain rational when the element is constant."""
        if self.den:
            return None
        if self.num.is_zero():
            return Fraction(0)
        if set(self.num.coeffs) == {0}:
            return self.num.coeffs[0]
        return None

    # -- evaluation and rendering ------------------------------------------

    def eval_at(self, prime: Prime | int) -> Fraction:
        """Exact value at q = p."""
        p = prime.p if isinstance(prime, Prime) else int(prime)
        if p < 2:
            raise ValueError("q must be specialized to an integer >= 2")
        value = self.num.eval(p)
        for i, e in self.den.items():
            value /= (1 - Fraction(p) ** (-i)) ** e
        return value

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
