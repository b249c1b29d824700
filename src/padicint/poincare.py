"""Congruence counting and certified rational generating functions.

N_m counts solutions of f = 0 in (Z/p^m)^n.  The generating function
sum N_m T^m is fitted by exact rational linear algebra on the count table:
the minimal verified linear recurrence yields numerator and denominator,
and the denominator is then factored, when possible, into the shape
prod (1 - p^-mi * T^Ni) by bounded exhaustive search.  A fit that fails
verification on the held-out guard entries is reported as UNDETERMINED,
never as a rational function.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .errors import BudgetExceeded
from .integrate import ConstructibleExpr, Domain, K_SORT, UNIT_BALL, integrate
from .kcells import KCell
from .padic import (
    DEFAULT_BUDGET,
    AngularResidue,
    Prime,
    enumerate_residues,
    rational_ord,
)
from .polys import Polynomial, polydiv, signed_join, trim


class _Undetermined:
    def __repr__(self):
        return "UNDETERMINED"

    def __bool__(self):
        return False


UNDETERMINED = _Undetermined()


def count_Nm(f: Polynomial, prime: Prime, m: int, budget: int = DEFAULT_BUDGET) -> int:
    """#{x in (Z/p^m)^n : f(x) = 0 mod p^m} by direct enumeration."""
    if not f.is_integral():
        raise ValueError("counting requires integer coefficients")
    if m < 0:
        raise ValueError("m must be >= 0")
    if m == 0:
        return 1
    mod = prime.p**m
    count = 0
    for residues in enumerate_residues(f.nvars, m, prime, budget):
        if f.eval_mod(residues, mod) == 0:
            count += 1
    return count


@dataclass
class SeriesTable:
    """A prefix N_0..N_mmax of the congruence counts for one polynomial."""

    prime: Prime
    f: Polynomial
    counts: list[int]

    def __post_init__(self):
        if not self.counts or self.counts[0] != 1:
            raise ValueError("a count table starts with N_0 = 1")
        cap = self.prime.p**self.f.nvars
        for m in range(len(self.counts) - 1):
            if self.counts[m + 1] > cap * self.counts[m]:
                raise ValueError(
                    f"N_{m + 1} exceeds p^n * N_{m}: impossible lifting"
                )


def series_table(
    f: Polynomial, prime: Prime, mmax: int, budget: int = DEFAULT_BUDGET
) -> SeriesTable:
    """Count N_0..N_mmax by lifting: every solution mod p^(m+1) reduces to
    one mod p^m, so only p^n candidate lifts per known solution are tested.
    Agrees with count_Nm everywhere; radically cheaper when solutions are
    sparse."""
    if not f.is_integral():
        raise ValueError("counting requires integer coefficients")
    p = prime.p
    n = f.nvars
    counts = [1]
    solutions: list[tuple[int, ...]] = [(0,) * n]
    deltas = list(itertools.product(range(p), repeat=n))
    for m in range(1, mmax + 1):
        if p**n * len(solutions) > budget:
            raise BudgetExceeded(
                f"lifting to depth {m} would test more than {budget} candidates"
            )
        mod = p**m
        step = p ** (m - 1)
        lifted = []
        for base in solutions:
            for delta in deltas:
                cand = tuple(b + d * step for b, d in zip(base, delta))
                if f.eval_mod(cand, mod) == 0:
                    lifted.append(cand)
        solutions = lifted
        counts.append(len(solutions))
    return SeriesTable(prime, f, counts)


def measure_identity_check(
    f: Polynomial, prime: Prime, m: int, budget: int = DEFAULT_BUDGET
) -> bool:
    """Check N_m = p^(nm) * mu({x : ord f(x) >= m}).

    The counting half recomputes the right side through the valuation
    machinery on lifts.  For a monomial in a single variable the measure is
    also computed symbolically through the integration engine and compared;
    other shapes are not fiber-reducible and use the counting half only.
    """
    p = prime.p
    n = f.nvars
    Nm = count_Nm(f, prime, m, budget)
    if m == 0:
        return Nm == 1
    count = 0
    for residues in enumerate_residues(n, m, prime, budget):
        if rational_ord(f.eval_int(residues), p) >= m:
            count += 1
    ok = Nm == count

    mono = _single_variable_monomial(f)
    if mono is not None:
        j, e, c0 = mono
        v0 = rational_ord(c0, p)
        t = -((v0 - m) // e)  # ceil((m - v0) / e)
        mu = _ball_measure(j, t, n, prime)
        ok = ok and Nm == p ** (n * m) * mu
    return ok


def _single_variable_monomial(f: Polynomial) -> Optional[tuple[int, int, Fraction]]:
    """(index, exponent, coefficient) when f = c * x_j^e with e >= 1."""
    mono = f.single_monomial()
    if mono is None:
        return None
    c, exps = mono
    live = [i for i, e in enumerate(exps) if e > 0]
    if len(live) != 1:
        return None
    j = live[0]
    return j, exps[j], c


def _ball_measure(index: int, t: int, nvars: int, prime: Prime) -> Fraction:
    """mu({x in Z_p^n : ord x_index >= t}) through the symbolic engine."""
    if t <= 0:
        return Fraction(1)
    p = prime.p
    cells = [
        KCell(Fraction(0), t - 1, None, 1, 0, 1, AngularResidue(1, xi), prime)
        for xi in range(1, p)
    ]
    variables = []
    for i in range(nvars):
        region = cells if i == index else UNIT_BALL
        variables.append((f"x{i + 1}", K_SORT, region))
    domain = Domain(variables, prime)
    one = ConstructibleExpr.constant(1)
    return integrate(one, domain).eval_at(prime)


# -- rational fitting ---------------------------------------------------------


@dataclass
class RationalFunctionT:
    """Q(T) / D(T) with D(0) = 1, reproducing a count table exactly.

    shape lists (mi, Ni) pairs with D = prod (1 - p^-mi T^Ni) when the
    bounded search certifies that factorization (mi may be negative, in
    which case p^-mi is a positive power of p); shape is None when the
    denominator does not factor this way within the search window.
    """

    num: list[Fraction]
    den: list[Fraction]
    prime: Prime
    shape: Optional[list[tuple[int, int]]] = None

    def expand(self, count: int) -> list[Fraction]:
        out = []
        for m in range(count):
            acc = self.num[m] if m < len(self.num) else Fraction(0)
            for i in range(1, min(m, len(self.den) - 1) + 1):
                acc -= self.den[i] * out[m - i]
            out.append(acc)
        return out

    def reproduces(self, counts: list[int]) -> bool:
        return self.expand(len(counts)) == [Fraction(c) for c in counts]

    def render_num(self) -> str:
        return _poly_in_T(self.num)

    def render_den(self) -> str:
        if self.shape is not None:
            parts = []
            for mi, Ni in self.shape:
                coef = _pow_str(self.prime.p, -mi)
                tpow = "T" if Ni == 1 else f"T^{Ni}"
                if coef == "1":
                    parts.append(f"(1 - {tpow})")
                else:
                    parts.append(f"(1 - {coef}*{tpow})")
            return "".join(parts)
        return _poly_in_T(self.den)

    def __repr__(self):
        return f"RationalFunctionT({self.render_num()} / {self.render_den()})"


def _pow_str(p: int, k: int) -> str:
    if k >= 0:
        return str(p**k)
    return f"1/{p ** (-k)}"


def _poly_in_T(coeffs: list[Fraction]) -> str:
    terms = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        mag = abs(c)
        if i == 0:
            body = str(mag)
        else:
            t = "T" if i == 1 else f"T^{i}"
            body = t if mag == 1 else f"{mag}*{t}"
        terms.append((c < 0, body))
    return signed_join(terms)


def _solve_linear(rows: list[list[Fraction]], rhs: list[Fraction]) -> Optional[list[Fraction]]:
    """One exact solution of rows * x = rhs (free variables set to 0),
    or None when the system is inconsistent."""
    if not rows:
        return None
    ncols = len(rows[0])
    aug = [row[:] + [b] for row, b in zip(rows, rhs)]
    pivots = []
    r = 0
    for col in range(ncols):
        pivot = None
        for i in range(r, len(aug)):
            if aug[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = 1 / aug[r][col]
        aug[r] = [v * inv for v in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][col] != 0:
                factor = aug[i][col]
                aug[i] = [v - factor * w for v, w in zip(aug[i], aug[r])]
        pivots.append(col)
        r += 1
        if r == len(aug):
            break
    for i in range(r, len(aug)):
        if aug[i][ncols] != 0:
            return None
    solution = [Fraction(0)] * ncols
    for row_idx, col in enumerate(pivots):
        solution[col] = aug[row_idx][ncols]
    return solution


def fit_rational(
    table: SeriesTable, guard: int = 5
) -> Union[RationalFunctionT, _Undetermined]:
    """Minimal verified linear recurrence, reconstructed as Q(T)/D(T).

    Orders 1..(len-guard)/2 are tried on the prefix that excludes the final
    guard entries; a candidate recurrence must then hold on every entry of
    the full table, and the reconstructed rational function must reproduce
    the table exactly.  Anything less is UNDETERMINED.
    """
    if guard < 3:
        raise ValueError("guard must be >= 3")
    counts = [Fraction(c) for c in table.counts]
    prefix = len(counts) - guard
    max_order = prefix // 2
    for L in range(1, max_order + 1):
        rows = []
        rhs = []
        for m in range(L, prefix):
            rows.append([counts[m - i] for i in range(1, L + 1)])
            rhs.append(counts[m])
        coeffs = _solve_linear(rows, rhs)
        if coeffs is None:
            continue
        if not _recurrence_holds(counts, coeffs):
            continue
        den = [Fraction(1)] + [-c for c in coeffs]
        num = _truncated_product(counts, den, L)
        candidate = RationalFunctionT(num, den, table.prime)
        if not candidate.reproduces(table.counts):
            continue
        candidate.shape = _certify_shape(den, table.prime.p, table.f.nvars)
        return candidate
    return UNDETERMINED


def _recurrence_holds(counts: list[Fraction], coeffs: list[Fraction]) -> bool:
    L = len(coeffs)
    for m in range(L, len(counts)):
        if counts[m] != sum(coeffs[i - 1] * counts[m - i] for i in range(1, L + 1)):
            return False
    return True


def _truncated_product(counts: list[Fraction], den: list[Fraction], L: int) -> list[Fraction]:
    out = []
    for m in range(L):
        acc = Fraction(0)
        for i, d in enumerate(den):
            if i <= m:
                acc += d * counts[m - i]
        out.append(acc)
    return trim(out)


def _certify_shape(
    den: list[Fraction], p: int, nvars: int
) -> Optional[list[tuple[int, int]]]:
    """Factor D(T) as prod (1 - p^-mi T^Ni) with |mi| <= nvars * Ni, by
    depth-first exhaustive search; None when no such factorization exists."""
    deg = len(den) - 1
    if deg == 0:
        return [] if den == [Fraction(1)] else None
    for Ni in range(1, deg + 1):
        for mi in range(-nvars * Ni, nvars * Ni + 1):
            coef = Fraction(1, p**mi) if mi >= 0 else Fraction(p ** (-mi))
            factor = [Fraction(1)] + [Fraction(0)] * (Ni - 1) + [-coef]
            quot, rem = polydiv(den, factor)
            if quot is None or any(c != 0 for c in rem):
                continue
            rest = _certify_shape(trim(quot), p, nvars)
            if rest is not None:
                return sorted([(mi, Ni)] + rest, key=lambda s: (s[1], s[0]))
    return None


# -- the bundled report --------------------------------------------------------


@dataclass
class PoincareReport:
    table: SeriesTable
    rational: Union[RationalFunctionT, _Undetermined]
    checks: list[tuple[int, bool]]
    guard: int

    def to_json(self) -> dict:
        if isinstance(self.rational, RationalFunctionT):
            rational = {
                "num": self.rational.render_num(),
                "den": self.rational.render_den(),
            }
            shape = (
                [[mi, Ni] for mi, Ni in self.rational.shape]
                if self.rational.shape is not None
                else None
            )
        else:
            rational = None
            shape = None
        return {
            "counts": list(self.table.counts),
            "rational": rational,
            "shape": shape,
            "checks": [[m, ok] for m, ok in self.checks],
            "guard": self.guard,
        }

    def render(self) -> str:
        lines = [
            f"f = {self.table.f.render()},  p = {self.table.prime.p}",
            "counts: " + ", ".join(str(c) for c in self.table.counts),
        ]
        if isinstance(self.rational, RationalFunctionT):
            den = self.rational.render_den()
            if self.rational.shape is None:
                den = f"({den})"
            lines.append(f"P(T) = ({self.rational.render_num()}) / {den}")
            if self.rational.shape is not None:
                lines.append(
                    "shape: "
                    + " ".join(f"(1 - p^{-mi}*T^{Ni})" for mi, Ni in self.rational.shape)
                )
            else:
                lines.append("shape: generic denominator (no product certificate)")
        else:
            lines.append("P(T): UNDETERMINED (no verified recurrence)")
        lines.append(f"guard entries verified: {self.guard}")
        for m, ok in self.checks:
            lines.append(f"measure identity at m = {m}: {'ok' if ok else 'FAILED'}")
        return "\n".join(lines)


def poincare_report(
    f: Polynomial,
    prime: Prime,
    mmax: int,
    guard: int = 5,
    budget: int = DEFAULT_BUDGET,
    check_mmax: Optional[int] = None,
) -> PoincareReport:
    """Counts, rational fit, and measure-identity checks in one bundle.

    Identity checks enumerate p^(n m) points, so they run only up to
    check_mmax (default: as far as the budget allows, at most mmax)."""
    table = series_table(f, prime, mmax, budget)
    rational = fit_rational(table, guard)
    checks = []
    p = prime.p
    n = f.nvars
    limit = mmax if check_mmax is None else min(check_mmax, mmax)
    for m in range(0, limit + 1):
        if p ** (n * m) > budget:
            break
        checks.append((m, measure_identity_check(f, prime, m, budget)))
    return PoincareReport(table, rational, checks, guard)
