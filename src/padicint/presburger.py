"""Congruence-constrained integer intervals and their exact parametric sums.

A cell is the set of integers k mod n inside an open interval whose bounds
may be absent.  Reindexing gamma = k + n*tau turns every sum over a cell
into a sum over an integer range of tau; closed forms for geometric and
polynomially-weighted sums land in the coefficient ring of aqring.

Every such sum, and every value-group sum integrate builds, is G(b+1) -
G(a) for the antidifference G of P(tau) q^(e1 tau), any sign of e1.  At
an integer endpoint G is one element over the single index |e1|, so it is
canonicalised once; a reduced numerator over a power of (1 - q^-N) is
unique for its value, so the form is the one a term-by-term sum would
reach.  The dense helpers behind it live in polys.

A prepared linear form a*(gamma - k)/n + delta applied to a named
variable, LinExpr, is one type wherever it occurs: a lin(...) leaf of an
integrand, and a domain cell's bound that depends on an outer variable.

The well-order here is the zigzag 0, 1, -1, 2, -2, ... under which every
nonempty cell union has a least element computable from at most two
candidates per cell.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd
from typing import Iterable, Iterator, Optional, Sequence, Union

from .aqring import AqElem, LaurentPoly
from .errors import NULL, DivergentSum, DomainError, EmptySet, FrozenRecord, json_fields
from .padic import INFINITY, ExtendedInteger
from .polys import binom_int, difference_polys, finite_differences, poly_mul
from .polys import poly_eval, poly_shift  # noqa: F401  (perfbench/tracing.py wraps both by these names)

Rat = Union[int, Fraction]


def tau_range(
    lower: Optional[int], upper: Optional[int], mod: int, res: int
) -> tuple[Optional[int], Optional[int]]:
    """Inclusive bounds of tau = (gamma - res)/mod over the gamma = res mod
    mod with lower < gamma < upper; None means unbounded."""
    a = None if lower is None else (lower - res) // mod + 1
    b = None if upper is None else -((res - upper) // mod) - 1
    return a, b


class GammaCell(FrozenRecord):
    """Integers gamma with lower < gamma < upper and gamma = res mod mod.

    Either bound may be None, meaning no constraint on that side.  In a
    domain a bound may also be a LinExpr, a prepared linear form in an outer
    value-group variable; such a cell has members only once that variable
    has a value, so the functions below raise DomainError on it.
    """

    __slots__ = ("lower", "upper", "mod", "res")

    def __init__(self, lower: Bound, upper: Bound, mod: int = 1, res: int = 0):
        if mod < 1:
            raise ValueError("modulus must be >= 1")
        if not 0 <= res < mod:
            raise ValueError("residue must satisfy 0 <= res < mod")
        self._freeze((lower, upper, mod, res))

    def contains(self, gamma: int) -> bool:
        if self.lower is not None and not self.lower < gamma:
            return False
        if self.upper is not None and not gamma < self.upper:
            return False
        return gamma % self.mod == self.res

    def tau_bounds(self) -> tuple[Optional[int], Optional[int]]:
        """Inclusive bounds of tau = (gamma - res)/mod; None means unbounded."""
        return tau_range(self.lower, self.upper, self.mod, self.res)

    def is_empty(self) -> bool:
        a, b = self.tau_bounds()
        return a is not None and b is not None and a > b

    def members(self) -> Iterator[int]:
        """Iterate the members of a bounded cell in increasing order."""
        a, b = self.tau_bounds()
        if a is None or b is None:
            raise ValueError("cannot enumerate an unbounded cell")
        for tau in range(a, b + 1):
            yield self.res + tau * self.mod

    def to_json(self) -> dict:
        lower, upper = (b.to_json() if isinstance(b, LinExpr) else b for b in (self.lower, self.upper))
        return {"lower": lower, "upper": upper, "mod": self.mod, "res": self.res}

    @classmethod
    def from_json(cls, data: dict) -> "GammaCell":
        return cls(*json_fields(
            data, "value-group cell", lower=(int, NULL), upper=(int, NULL), mod=int, res=int
        ))


class PreparedLinear(FrozenRecord):
    """Piecewise-linear shape a*(gamma - k)/n + delta on gamma = k mod n."""

    __slots__ = ("a", "k", "n", "delta")

    def __init__(self, a: int, k: int, n: int, delta: int):
        if n < 1:
            raise ValueError("n must be >= 1")
        if k < 0:
            raise ValueError("k must be >= 0")
        self._freeze((a, k, n, delta))

    def eval(self, gamma: int) -> int:
        if (gamma - self.k) % self.n != 0:
            raise DomainError(
                f"gamma = {gamma} is not congruent to {self.k} mod {self.n}"
            )
        return self.a * ((gamma - self.k) // self.n) + self.delta


def prepared_eval(f: PreparedLinear, gamma: int) -> int:
    return f.eval(gamma)


class LinExpr(FrozenRecord):
    """A prepared linear form applied to a named value-group variable: a
    lin(a,k,n,delta;g) leaf of an integrand, and a domain cell's bound
    that depends on an outer variable.

    It has no value of its own: comparing it with an integer or subtracting
    it, as every function on a cell's members does, raises DomainError
    naming the variable."""

    __slots__ = ("form", "var")

    def __init__(self, form: PreparedLinear, var: str):
        self._freeze((form, var))

    def _unvalued(self, other):
        raise DomainError(
            f"a cell bound depends on the value-group variable {self.var}, which has no value here"
        )

    __lt__ = __le__ = __gt__ = __ge__ = __sub__ = __rsub__ = _unvalued

    def to_json(self) -> dict:
        f = self.form
        return {"var": self.var, "a": f.a, "k": f.k, "n": f.n, "delta": f.delta}

    @classmethod
    def from_json(cls, data: dict) -> "LinExpr":
        var, a, k, n, delta = json_fields(data, "bound", var=str, a=int, k=int, n=int, delta=int)
        return cls(PreparedLinear(a, k, n, delta), var)


Bound = Union[None, int, LinExpr]


class GammaCellUnion:
    """A finite union of pairwise-disjoint cells."""

    def __init__(self, cells: Iterable[GammaCell]):
        cells = list(cells)
        for i in range(len(cells)):
            for j in range(i + 1, len(cells)):
                if not cells_disjoint(cells[i], cells[j]):
                    raise ValueError(
                        f"cells {cells[i]} and {cells[j]} are not disjoint"
                    )
        self.cells = cells

    def contains(self, gamma: int) -> bool:
        return any(c.contains(gamma) for c in self.cells)

    def __iter__(self) -> Iterator[GammaCell]:
        return iter(self.cells)

    def __len__(self) -> int:
        return len(self.cells)

    def to_json(self) -> list:
        return [c.to_json() for c in self.cells]

    @classmethod
    def from_json(cls, data: list) -> "GammaCellUnion":
        return cls(GammaCell.from_json(d) for d in data)


# -- cardinality and intersection -------------------------------------------


def cell_cardinality(cell: GammaCell) -> ExtendedInteger:
    """Exact member count; INFINITY for nonempty cells missing a bound."""
    a, b = cell.tau_bounds()
    if a is not None and b is not None:
        return max(0, b - a + 1)
    return INFINITY


def intersect_cells(c1: GammaCell, c2: GammaCell) -> Optional[GammaCell]:
    """Exact intersection as a cell, or None when it is empty.

    The congruence part is combined by CRT; the interval part by taking the
    tighter bound on each side.
    """
    g = gcd(c1.mod, c2.mod)
    if (c2.res - c1.res) % g != 0:
        return None
    l = c1.mod // g * c2.mod
    # res = c1.res + c1.mod * t with t chosen so the second congruence holds.
    m2 = c2.mod // g
    t = ((c2.res - c1.res) // g * pow(c1.mod // g, -1, m2)) % m2 if m2 > 1 else 0
    res = (c1.res + c1.mod * t) % l
    lowers = [x for x in (c1.lower, c2.lower) if x is not None]
    uppers = [x for x in (c1.upper, c2.upper) if x is not None]
    cell = GammaCell(
        max(lowers) if lowers else None,
        min(uppers) if uppers else None,
        l,
        res,
    )
    return None if cell.is_empty() else cell


def cells_disjoint(c1: GammaCell, c2: GammaCell) -> bool:
    return intersect_cells(c1, c2) is None


# -- closed-form sums --------------------------------------------------------


def geom_sum(cell: GammaCell, N: int) -> AqElem:
    """Exact sum of (q^-N)^tau over the reindexed cell, tau = (gamma-res)/mod.

    This is weighted_sum with the constant weight 1; on a bounded cell the
    closed form is (x^a - x^(b+1)) / (1 - x) with x = q^-N and inclusive
    tau-range [a, b].
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    return weighted_sum(cell, [1], N)


@lru_cache(maxsize=None)
def _term_numerators(deg: int, e1: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """For e1 != 0, the numerators over (1 - u)^(deg+1), u = q^-|e1|, of
    the terms j = 0..deg of the antidifference, as (exponent of q, coeff)
    pairs: -u^j (1 - u)^(deg-j) for e1 < 0, (-1)^j u (1 - u)^(deg-j) for
    e1 > 0."""
    N = abs(e1)
    out = []
    for j in range(deg + 1):
        sign, lead = (-1, j) if e1 < 0 else ((-1) ** j, 1)
        out.append(tuple(
            (-N * (lead + k), sign * (-1) ** k * comb(deg - j, k)) for k in range(deg - j + 1)
        ))
    return tuple(out)


class Antidifference:
    """The antidifference G of P(A) q^(e1 A): G(A+1) - G(A) = P(A) q^(e1 A).

    For e1 != 0, with x = q^e1, xE - 1 = (x - 1) + x*delta gives G(A) =
    x^A sum_j (-x)^j (delta^j P)(A) / (x - 1)^(j+1): the numerators of
    _term_numerators over den = (1 - q^-|e1|)^(D+1).  G is 0 where the
    weight decays.  For e1 = 0, G(A) = sum_j (delta^j P)(0) C(A, j+1).

    at(A) evaluates G at an integer from the differences of P(A), ...,
    P(A + D) as numbers, in O(D^2) where evaluating nums() costs O(D^3);
    nums() expands G in powers of a symbolic A.
    """

    __slots__ = ("e1", "coeffs", "den", "terms")

    def __init__(self, poly: Sequence[Rat], e1: int):
        coeffs = [c.numerator if c.__class__ is Fraction and c.denominator == 1 else c for c in poly]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self.e1, self.coeffs = e1, coeffs
        self.den = {abs(e1): len(coeffs)} if e1 and coeffs else {}
        self.terms = _term_numerators(len(coeffs) - 1, e1) if self.den else ()

    def at(self, A: int, sign: int = 1) -> AqElem:
        """sign * G(A) as one element, canonicalised once."""
        coeffs = self.coeffs
        if not self.den:
            total = sum(d * binom_int(A, j + 1) for j, d in enumerate(finite_differences(coeffs)))
            return AqElem.from_rational(sign * total)
        values = []  # sign * P(A), ..., sign * P(A + D), then their differences
        for t in range(A, A + len(coeffs)):
            v = 0
            for c in reversed(coeffs):
                v = v * t + c
            values.append(sign * v)
        acc: dict[int, Rat] = {}
        shift = self.e1 * A
        for term in self.terms:
            d = values[0]  # sign * (delta^j P)(A)
            for e, w in term:
                e += shift
                acc[e] = acc[e] + w * d if e in acc else w * d
            values = [y - x for x, y in zip(values, values[1:])]
        return AqElem(LaurentPoly(acc), self.den)

    def nums(self) -> list[dict[int, Rat]]:
        """G(A) = q^(e1 A) sum_s A^s nums[s] / den: one numerator (exponent
        of q -> coeff, empty where A^s does not occur) per power of A."""
        if not self.coeffs:
            return []
        diffs = difference_polys(self.coeffs)
        if not self.den:
            # C(A, j+1) = A (A-1) ... (A-j) / (j+1)!
            rows = [0] * (len(diffs) + 1)
            falling = [1]
            for j, diff in enumerate(diffs):
                falling = poly_mul(falling, [-j, 1])
                for s, r in enumerate(falling):
                    rows[s] += Fraction(diff[0] * r, factorial(j + 1))
            return [{0: c} if c else {} for c in rows]
        acc: list[dict[int, Rat]] = [{} for _ in diffs]
        for diff, term in zip(diffs, self.terms):
            for e, w in term:
                for s, r in enumerate(diff):
                    acc[s][e] = acc[s].get(e, 0) + w * r
        return [{e: c for e, c in num.items() if c} for num in acc]


def check_convergent(a, b, e1: int) -> None:
    """Raise DivergentSum unless a sum of P(tau) q^(e1 tau), P a nonzero
    polynomial, over a <= tau <= b (None: that end unbounded) converges: it
    diverges exactly when the weight does not decay toward an unbounded end."""
    side = "below" if a is None and e1 <= 0 else "above" if b is None and e1 >= 0 else None
    if side:
        raise DivergentSum(f"sum is unbounded {side}, where the weight q^({e1}*tau) does not decay")


def weighted_tail(poly: Sequence[Rat], a: int, N: int) -> AqElem:
    """Exact sum of poly(tau) * q^(-N tau) over tau >= a, for N >= 1: -G(a)
    for the antidifference G with e1 = -N."""
    if N < 1:
        raise ValueError("N must be >= 1")
    return Antidifference(poly, -N).at(a, -1)


def weighted_sum(cell: GammaCell, poly: Sequence[Rat], N: int) -> AqElem:
    """Exact sum of poly(tau) * (q^-N)^tau over the reindexed cell, G(b+1)
    - G(a) for the antidifference G with e1 = -N.

    N = 0 is permitted only on bounded cells (plain polynomial summation);
    denominators of the result are powers of (1 - q^-N).
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    if cell.is_empty():
        return AqElem.zero()
    if all(Fraction(c) == 0 for c in poly):
        return AqElem.zero()
    a, b = cell.tau_bounds()
    check_convergent(a, b, -N)
    G = Antidifference(poly, -N)
    tail = G.at(a, -1)
    return tail if b is None else tail + G.at(b + 1)


def gamma_weight_sum(cell: GammaCell, N: int = 1) -> AqElem:
    """Exact sum of q^(-N gamma) over the cell members gamma themselves.

    Unlike geom_sum this weight does not depend on the cell presentation,
    so it is additive across disjoint refinements of the same set.
    """
    return AqElem.q_power(-N * cell.res) * geom_sum(cell, N * cell.mod)


# -- the zigzag well-order -----------------------------------------------------


def wellorder_key(x: int) -> int:
    """Rank in the chain 0, 1, -1, 2, -2, ...: positives at 2x-1, rest at -2x."""
    return 2 * x - 1 if x > 0 else -2 * x


def wellorder_less(x: int, y: int) -> bool:
    return wellorder_key(x) < wellorder_key(y)


def _cell_wellorder_min(cell: GammaCell) -> Optional[int]:
    """Least member of one cell under the zigzag order, or None if empty.

    Only two candidates matter: the least nonnegative member and the
    greatest negative member.
    """
    if cell.is_empty():
        return None
    a, b = cell.tau_bounds()
    candidates = []
    # least nonnegative member: gamma >= 0 iff tau >= 0 (since 0 <= res < mod)
    tau = 0 if a is None else max(a, 0)
    if b is None or tau <= b:
        candidates.append(cell.res + tau * cell.mod)
    # greatest negative member: gamma <= -1 iff tau <= -1
    tau = -1 if b is None else min(b, -1)
    if a is None or tau >= a:
        candidates.append(cell.res + tau * cell.mod)
    if not candidates:
        return None
    return min(candidates, key=wellorder_key)


def wellorder_min(union: GammaCellUnion | Iterable[GammaCell]) -> int:
    cells = list(union)
    best = None
    for cell in cells:
        m = _cell_wellorder_min(cell)
        if m is not None and (best is None or wellorder_less(m, best)):
            best = m
    if best is None:
        raise EmptySet("the union has no members")
    return best


def wellorder_min_product(
    product_cells: Iterable[Sequence[GammaCell]],
) -> tuple[int, ...]:
    """Least tuple, lexicographically in the zigzag order, over a finite
    union of product cells.  Coordinates of a product cell are independent,
    so its least tuple is the tuple of per-coordinate minima."""
    best = None
    for factors in product_cells:
        mins = []
        for cell in factors:
            m = _cell_wellorder_min(cell)
            if m is None:
                break
            mins.append(m)
        else:
            key = tuple(wellorder_key(v) for v in mins)
            if best is None or key < best[0]:
                best = (key, tuple(mins))
    if best is None:
        raise EmptySet("the union has no members")
    return best[1]
