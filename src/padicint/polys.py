"""Polynomials and the text rendering shared by the whole package.

Polynomial is a sparse multivariate polynomial with rational
coefficients, integral ones held as ints, used both for congruence
counting (evaluation mod p^m with integer arithmetic) and as the ord
arguments of constructible functions, which the parser builds with its
own + - *.  Exponent tuples are the keys; zero coefficients are dropped.

The dense univariate helpers take coefficient lists, lowest degree first:
evaluation, shift, product, exact long division, and the finite
differences behind the closed-form sums in the binomial basis.  They
compute in the type they are given, so int input stays int; only the
quotients of the long division are Fractions.  They serve
presburger's weighted sums, the symbolic integrator, the Aq ring's
canonical form and the Poincare denominator search.

eval_terms evaluates an integer polynomial given as its int terms, and
taylor_terms gives the Taylor coefficients of one in the same form, for
the oracle's test that a valuation is constant on a box.

signed_join renders a sum of signed terms for every renderer in the
package, and render_powers a sum of signed powers of one variable;
rationals render as str(Fraction), "a" or "a/b".  This module imports
nothing from the package, so every other module can import it.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Iterable, Mapping, Sequence, Union

Rat = Union[int, Fraction]


def _canonical(terms: dict) -> dict:
    """terms without zero coefficients, each integral one made an int."""
    return {e: c if c.__class__ is int or c.denominator != 1 else c.numerator for e, c in terms.items() if c}


def _exponent(e) -> int:
    if e != int(e):
        raise ValueError(f"exponent {e!r} is not an integer")
    return int(e)


class Polynomial:
    """Canonical sparse form: {exponent tuple: nonzero coefficient}, an
    integral coefficient held as an int, any other as a Fraction.  An
    exponent that is not an integer raises ValueError."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[tuple[int, ...], Rat] | None = None):
        if nvars < 0:
            raise ValueError("nvars must be >= 0")
        self.nvars = nvars
        clean: dict[tuple[int, ...], Rat] = {}
        for exps, c in (terms or {}).items():
            exps = tuple(e if e.__class__ is int else _exponent(e) for e in exps)
            if len(exps) != nvars:
                raise ValueError("exponent tuple arity mismatch")
            if any(e < 0 for e in exps):
                raise ValueError("exponents must be >= 0")
            c = c if c.__class__ is int else Fraction(c)
            if c != 0:
                clean[exps] = clean[exps] + c if exps in clean else c
        self.terms = _canonical(clean)

    @classmethod
    def _reduced(cls, nvars: int, terms: dict[tuple[int, ...], Rat]) -> "Polynomial":
        """The polynomial with terms already in canonical form (exponent
        tuples of length nvars, nonzero coefficients, an integral one an
        int), unchecked."""
        out = object.__new__(cls)
        out.nvars = nvars
        out.terms = terms
        return out

    @classmethod
    def constant(cls, c: Rat, nvars: int = 0) -> "Polynomial":
        if c.__class__ is int and nvars >= 0:
            return cls._reduced(nvars, {(0,) * nvars: c} if c else {})
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, index: int, nvars: int) -> "Polynomial":
        if not 0 <= index < nvars:
            raise ValueError(f"no variable of index {index} among {nvars}")
        return cls._reduced(nvars, {(0,) * index + (1,) + (0,) * (nvars - index - 1): 1})

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
            out[e] = out[e] + c if e in out else c
        return Polynomial._reduced(self.nvars, _canonical(out))

    def __neg__(self) -> "Polynomial":
        return Polynomial._reduced(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        out: dict[tuple[int, ...], Rat] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple([a + b for a, b in zip(e1, e2)])
                c = c1 * c2
                out[e] = out[e] + c if e in out else c
        return Polynomial._reduced(self.nvars, _canonical(out))

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

    def derivative(self, index: int) -> "Polynomial":
        """The partial derivative in x_index."""
        out = {}
        for exps, c in self.terms.items():
            e = exps[index]
            if e:
                out[exps[:index] + (e - 1,) + exps[index + 1 :]] = c * e
        return Polynomial(self.nvars, out)

    def eval(self, values: Sequence[Rat]) -> Fraction:
        total = Fraction(0)
        for exps, c in self.terms.items():
            v = c
            for x, e in zip(values, exps):
                if e:
                    v *= Fraction(x) ** e
            total += v
        return total

    def int_terms(self) -> tuple[tuple[int, tuple[tuple[int, int], ...]], ...]:
        """The terms as (coefficient, ((index, exponent), ...)) pairs of
        ints over the nonzero exponents: the form eval_terms reads.
        Requires integer coefficients."""
        out = []
        for exps, c in self.terms.items():
            if c.denominator != 1:
                raise ValueError("integer evaluation requires integer coefficients")
            out.append((c.numerator, tuple((i, e) for i, e in enumerate(exps) if e)))
        return tuple(out)

    def eval_int(self, values: Sequence[int]) -> int:
        """Exact integer evaluation; requires integer coefficients."""
        return eval_terms(self.int_terms(), values)

    def eval_mod(self, values: Sequence[int], mod: int) -> int:
        return eval_terms(self.int_terms(), values) % mod

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
                term = coeff * binom * c ** (e - j)
                out[key] = out[key] + term if key in out else term
                binom = binom * (e - j) // (j + 1)
        return Polynomial(self.nvars, out)

    def single_monomial(self) -> tuple[Rat, tuple[int, ...]] | None:
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


def eval_terms(terms: Iterable[tuple[int, tuple[tuple[int, int], ...]]], values: Sequence[int]) -> int:
    """The integer polynomial given by Polynomial.int_terms at int values,
    where (index, exponent) reads values[index]."""
    total = 0
    for c, monomial in terms:
        for i, e in monomial:
            c *= values[i] ** e
        total += c
    return total


def taylor_terms(terms: Iterable[tuple[int, tuple[tuple[int, int], ...]]]) -> dict:
    """{b: the terms of c_b = (d^b / b!) g} over b != 0, for the integer
    polynomial g given by terms as eval_terms reads them, so that
    g(x + h) = g(x) + sum_b c_b(x) h^b.  b is a tuple of (index, b_i) pairs
    with b_i > 0; c x^e contributes c C(e, b) x^(e - b), an integer."""
    out: dict = {}
    for c, monomial in terms:
        # (b, c C(e, b), x^(e - b)) over b <= e, one coordinate at a time
        parts = [((), c, ())]
        for i, e in monomial:
            parts = [
                (b + ((i, j),) if j else b, coeff * comb(e, j), rest + ((i, e - j),) if j < e else rest)
                for b, coeff, rest in parts
                for j in range(e + 1)
            ]
        for b, coeff, rest in parts:
            if b:  # distinct terms of g give distinct terms of c_b
                out.setdefault(b, []).append((coeff, rest))
    return out


def signed_join(terms: Iterable[tuple[bool, str]]) -> str:
    """Join (negative, body) pairs as "a - b + c"; "0" when there are none."""
    parts = []
    for negative, body in terms:
        if parts:
            parts.append(f"- {body}" if negative else f"+ {body}")
        else:
            parts.append(f"-{body}" if negative else body)
    return " ".join(parts) if parts else "0"


def render_powers(terms: Iterable[tuple[int, Rat]], var: str) -> str:
    """Join (exponent, coefficient) pairs, in the order given, as a signed
    sum of c*var^e; zero coefficients are left out."""
    parts = []
    for e, c in terms:
        if not c:
            continue
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            head = var if e == 1 else f"{var}^{e}"
            body = head if mag == 1 else f"{mag}*{head}"
        parts.append((c < 0, body))
    return signed_join(parts)


# -- dense univariate polynomials (coefficient lists, lowest degree first) ---


def trim(coeffs: list[Rat]) -> list[Rat]:
    """Drop trailing zero coefficients in place, keeping at least one."""
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def poly_eval(coeffs: Sequence[Rat], x: Rat) -> Fraction:
    total = Fraction(0)
    for c in reversed(list(coeffs)):
        total = total * Fraction(x) + Fraction(c)
    return total


def poly_shift(coeffs: Sequence[Rat], c: Rat) -> list[Rat]:
    """Coefficients of p(x + c)."""
    out = [0]
    for coeff in reversed(list(coeffs)):
        # out = out * (x + c) + coeff
        new = [0] * (len(out) + 1)
        for i, v in enumerate(out):
            new[i + 1] += v
            new[i] += v * c
        new[0] += coeff
        out = trim(new)
    return out


def poly_mul(a: Sequence[Rat], b: Sequence[Rat]) -> list[Rat]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return trim(out)


def polydiv(num: Sequence[Rat], den: Sequence[Rat]):
    """Long division: (quotient, remainder), or (None, num) when deg num <
    deg den.  The remainder keeps the length of num.  The divisions go
    through a Fraction, so int input divides exactly."""
    num = list(num)
    dd = len(den) - 1
    lead = Fraction(den[dd])
    if len(num) - 1 < dd:
        return None, num
    quot = [Fraction(0)] * (len(num) - dd)
    for i in range(len(num) - 1 - dd, -1, -1):
        c = num[i + dd] / lead
        quot[i] = c
        if c != 0:
            for j, dc in enumerate(den):
                if dc:  # the divisors q^i - 1 and 1 - c*T^N are mostly zeros
                    num[i + j] -= c * dc
    return quot, num


def difference_polys(coeffs: Sequence[Rat]) -> list[list[Rat]]:
    """The forward differences p, delta p, ..., delta^deg p as coefficient
    lists, where (delta p)(x) = p(x + 1) - p(x).  int input stays int."""
    cur = list(coeffs) or [0]
    out = [cur]
    while len(cur) > 1:
        cur = trim([a - b for a, b in zip(poly_shift(cur, 1), cur)])
        out.append(cur)
    return out


def finite_differences(coeffs: Sequence[Rat]) -> list[Rat]:
    """Values (delta^j p)(0) for j = 0..deg(p): the coefficients of p in the
    binomial basis C(x, j)."""
    return [d[0] for d in difference_polys(coeffs)]


def binom_int(s: int, k: int) -> int:
    """Binomial coefficient as the polynomial s(s-1)...(s-k+1)/k!, any int
    s: a product of k consecutive integers, so k! divides it exactly."""
    num = 1
    for i in range(k):
        num *= s - i
    den = 1
    for i in range(2, k + 1):
        den *= i
    return num // den
