"""Polynomials and the text rendering shared by the whole package.

Polynomial is a sparse multivariate polynomial over the integers
(rationals internally), used both for congruence counting (evaluation mod
p^m with integer arithmetic) and as the arguments of valuation factors in
constructible functions.  Exponent tuples are the keys; zero coefficients
are dropped.

The dense univariate helpers take coefficient lists, lowest degree first:
evaluation, shift, product, exact long division, and the finite
differences behind the closed-form sums in the binomial basis.  They serve
presburger's weighted sums, the symbolic integrator, the Aq ring's
canonical form and the Poincare denominator search.

signed_join renders a sum of signed terms for every renderer in the
package; rationals render as str(Fraction), "a" or "a/b".  This module
imports nothing from the package, so every other module can import it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

Rat = Union[int, Fraction]


class Polynomial:
    """Canonical sparse form: {exponent tuple: nonzero coefficient}."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[tuple[int, ...], Rat] | None = None):
        if nvars < 0:
            raise ValueError("nvars must be >= 0")
        self.nvars = nvars
        clean: dict[tuple[int, ...], Fraction] = {}
        for exps, c in (terms or {}).items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != nvars:
                raise ValueError("exponent tuple arity mismatch")
            if any(e < 0 for e in exps):
                raise ValueError("exponents must be >= 0")
            c = Fraction(c)
            if c != 0:
                clean[exps] = clean.get(exps, Fraction(0)) + c
        self.terms = {e: c for e, c in clean.items() if c != 0}

    @classmethod
    def constant(cls, c: Rat, nvars: int = 0) -> "Polynomial":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, index: int, nvars: int) -> "Polynomial":
        exps = tuple(1 if i == index else 0 for i in range(nvars))
        return cls(nvars, {exps: 1})

    def is_zero(self) -> bool:
        return not self.terms

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.terms.values())

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        return Polynomial(self.nvars, out)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        out: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return Polynomial(self.nvars, out)

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative powers not supported")
        out = Polynomial.constant(1, self.nvars)
        for _ in range(n):
            out = out * self
        return out

    def _check(self, other: "Polynomial"):
        if self.nvars != other.nvars:
            raise ValueError("arity mismatch")

    def mentions(self, index: int) -> bool:
        return any(e[index] > 0 for e in self.terms)

    def degree_in(self, index: int) -> int:
        return max((e[index] for e in self.terms), default=0)

    def eval(self, values: Sequence[Rat]) -> Fraction:
        total = Fraction(0)
        for exps, c in self.terms.items():
            v = c
            for x, e in zip(values, exps):
                if e:
                    v *= Fraction(x) ** e
            total += v
        return total

    def eval_int(self, values: Sequence[int]) -> int:
        """Exact integer evaluation; requires integer coefficients."""
        total = 0
        for exps, c in self.terms.items():
            if c.denominator != 1:
                raise ValueError("eval_int requires integer coefficients")
            v = c.numerator
            for x, e in zip(values, exps):
                if e:
                    v *= x**e
            total += v
        return total

    def eval_mod(self, values: Sequence[int], mod: int) -> int:
        total = 0
        for exps, c in self.terms.items():
            if c.denominator != 1:
                raise ValueError("eval_mod requires integer coefficients")
            v = c.numerator % mod
            for x, e in zip(values, exps):
                if e:
                    v = v * pow(x, e, mod) % mod
            total = (total + v) % mod
        return total

    def shift_var(self, index: int, c: Rat) -> "Polynomial":
        """Substitute x_index -> x_index + c (binomial expansion)."""
        c = Fraction(c)
        if c == 0:
            return self
        out: dict[tuple[int, ...], Fraction] = {}
        for exps, coeff in self.terms.items():
            e = exps[index]
            # (x + c)^e expanded by rows of Pascal's triangle
            binom = 1
            for j in range(e + 1):
                new = list(exps)
                new[index] = j
                key = tuple(new)
                out[key] = out.get(key, Fraction(0)) + coeff * binom * c ** (e - j)
                binom = binom * (e - j) // (j + 1)
        return Polynomial(self.nvars, out)

    def single_monomial(self) -> tuple[Fraction, tuple[int, ...]] | None:
        """(coefficient, exponents) when the polynomial has exactly one term."""
        if len(self.terms) != 1:
            return None
        (exps, c), = self.terms.items()
        return c, exps

    def render(self, names: Sequence[str] | None = None) -> str:
        if names is None:
            names = [f"x{i + 1}" for i in range(self.nvars)]
        terms = []
        for exps in sorted(self.terms, reverse=True):
            c = self.terms[exps]
            factors = [name if e == 1 else f"{name}^{e}" for name, e in zip(names, exps) if e]
            if not factors or abs(c) != 1:
                factors.insert(0, str(abs(c)))
            terms.append((c < 0, "*".join(factors)))
        return signed_join(terms)

    def __repr__(self):
        return f"Polynomial({self.render()})"



def signed_join(terms: Iterable[tuple[bool, str]]) -> str:
    """Join (negative, body) pairs as "a - b + c"; "0" when there are none."""
    parts = []
    for negative, body in terms:
        if parts:
            parts.append(f"- {body}" if negative else f"+ {body}")
        else:
            parts.append(f"-{body}" if negative else body)
    return " ".join(parts) if parts else "0"


# -- dense univariate polynomials (coefficient lists, lowest degree first) ---


def trim(coeffs: list[Fraction]) -> list[Fraction]:
    """Drop trailing zero coefficients in place, keeping at least one."""
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def poly_eval(coeffs: Sequence[Rat], x: Rat) -> Fraction:
    total = Fraction(0)
    for c in reversed(list(coeffs)):
        total = total * Fraction(x) + Fraction(c)
    return total


def poly_shift(coeffs: Sequence[Rat], c: Rat) -> list[Fraction]:
    """Coefficients of p(x + c)."""
    out = [Fraction(0)]
    for coeff in reversed(list(coeffs)):
        # out = out * (x + c) + coeff
        new = [Fraction(0)] * (len(out) + 1)
        for i, v in enumerate(out):
            new[i + 1] += v
            new[i] += v * Fraction(c)
        new[0] += Fraction(coeff)
        out = trim(new)
    return out


def poly_mul(a: Sequence[Rat], b: Sequence[Rat]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return trim(out)


def polydiv(num: Sequence[Fraction], den: Sequence[Fraction]):
    """Long division: (quotient, remainder), or (None, num) when deg num <
    deg den.  The remainder keeps the length of num."""
    num = list(num)
    dd = len(den) - 1
    lead = den[dd]
    if len(num) - 1 < dd:
        return None, num
    quot = [Fraction(0)] * (len(num) - dd)
    for i in range(len(num) - 1 - dd, -1, -1):
        c = num[i + dd] / lead
        quot[i] = c
        if c != 0:
            for j, dc in enumerate(den):
                num[i + j] -= c * dc
    return quot, num


def difference_polys(coeffs: Sequence[Rat]) -> list[list[Fraction]]:
    """The forward differences p, delta p, ..., delta^deg p as coefficient
    lists, where (delta p)(x) = p(x + 1) - p(x)."""
    cur = [Fraction(c) for c in coeffs] or [Fraction(0)]
    out = [cur]
    while len(cur) > 1:
        cur = trim([a - b for a, b in zip(poly_shift(cur, 1), cur)])
        out.append(cur)
    return out


def finite_differences(coeffs: Sequence[Rat]) -> list[Fraction]:
    """Values (delta^j p)(0) for j = 0..deg(p): the coefficients of p in the
    binomial basis C(x, j)."""
    return [d[0] for d in difference_polys(coeffs)]


def binom_int(s: int, k: int) -> Fraction:
    """Binomial coefficient as the polynomial s(s-1)...(s-k+1)/k!, any int s."""
    num = 1
    for i in range(k):
        num *= s - i
    den = 1
    for i in range(2, k + 1):
        den *= i
    return Fraction(num, den)
