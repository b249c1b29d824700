"""Congruence counting and certified rational generating functions.

N_m counts solutions of f = 0 in (Z/p^m)^n.  The generating function
sum N_m T^m is fitted on the count table: a fraction-free
Berlekamp-Massey on the int counts finds the minimal linear recurrence
of the entries before the guard, which yields numerator and denominator,
and the denominator is then factored, when possible, into the shape
prod (1 - p^-mi * T^Ni) by bounded exhaustive search, each candidate
factor tested on D's exponent classes in integers.  The arithmetic stays
in ints wherever the fit is integral.  A fit that fails verification on
the held-out guard entries is reported as UNDETERMINED, never as a
rational function.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Union

from .errors import BudgetExceeded, Record
from .integrate import ConstructibleExpr, Domain, K_SORT, UNIT_BALL, integrate
from .kcells import KCell
from .padic import (
    DEFAULT_BUDGET,
    AngularResidue,
    Prime,
    enumerate_residues,
    rational_ord,
)
from .polys import Polynomial, Rat, eval_terms, poly_mul, render_powers, trim


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
    terms = f.int_terms()
    count = 0
    for residues in enumerate_residues(f.nvars, m, prime, budget):
        if eval_terms(terms, residues) % mod == 0:
            count += 1
    return count


class SeriesTable(Record):
    """A prefix N_0..N_mmax of the congruence counts for one polynomial.

    evaluations is the number of residue classes at which series_table
    evaluated f (0 for a table given directly); equality ignores it."""

    __slots__ = ("prime", "f", "counts", "evaluations")
    _uncompared = ("evaluations",)

    def __init__(self, prime: Prime, f: Polynomial, counts: list[int], evaluations: int = 0):
        if not counts or counts[0] != 1:
            raise ValueError("a count table starts with N_0 = 1")
        cap = prime.p**f.nvars
        for m in range(len(counts) - 1):
            if counts[m + 1] > cap * counts[m]:
                raise ValueError(
                    f"N_{m + 1} exceeds p^n * N_{m}: impossible lifting"
                )
        self.prime = prime
        self.f = f
        self.counts = counts
        self.evaluations = evaluations


def series_table(
    f: Polynomial, prime: Prime, mmax: int, budget: int = DEFAULT_BUDGET
) -> SeriesTable:
    """Count N_0..N_mmax on a tree of residue classes B = b + p^k Z_p^n,
    refining only the classes that Hensel's lemma leaves undecided.

    Let d = min(ord grad f(b), k).  By Taylor's formula f = f(b) mod
    p^(k+d) on B, and:
      - if ord f(b) < k + d, ord f is constant on B;
      - else if d < k, f = p^(k+d) g on B with g nonsingular mod p, so B
        holds p^(n(m-k)) solutions mod p^m for m <= k + d and
        p^(n d + (n-1)(m-k-d)) for m >= k + d (at k = 1, d = 0 these are
        the lifts of a nonsingular root mod p);
      - else d = k and f = 0 mod p^(2k) on B: B is undecided and splits
        into its p^n classes mod p^(k+1), unless 2k >= mmax already
        decides every count.
    Each class adds its solutions mod p^m to N_m for every m >= k it
    decides (m = k alone when it splits), so each solution is counted
    once.  The budget bounds the undecided frontier: splitting level k
    raises BudgetExceeded when p^n times its undecided classes exceeds it.
    The table records the classes evaluated.  Agrees with count_Nm
    everywhere."""
    if not f.is_integral():
        raise ValueError("counting requires integer coefficients")
    if mmax < 0:
        raise ValueError("mmax must be >= 0")
    p = prime.p
    n = f.nvars
    terms = f.int_terms()
    gradient = [f.derivative(i).int_terms() for i in range(n)]
    lifts = list(itertools.product(range(p), repeat=n))
    # (k, e, hensel) -> classes mod p^k with p^(n(m-k)) solutions mod p^m
    # for k <= m <= e; past e only a Hensel class has any
    decided: Counter = Counter()
    evaluations = 0
    k, frontier = 0, [(0,) * n]  # the undecided classes mod p^k
    while frontier and 2 * k < mmax:
        if p**n * len(frontier) > budget:
            raise BudgetExceeded(
                f"lifting to depth {k + 1} could split more than {budget} undecided classes"
            )
        decided[k, k, False] += len(frontier)  # each is a solution mod p^k
        evaluations += p**n * len(frontier)
        step, k = p**k, k + 1
        fmod, gmod = p ** (2 * k), p**k
        undecided = []
        for base in frontier:
            for lift in lifts:
                b = tuple(x + t * step for x, t in zip(base, lift))
                v = min(rational_ord(eval_terms(terms, b) % fmod, p), 2 * k)
                if v < k:
                    continue  # ord f < k on the class: no solution mod p^k
                d = min([k] + [rational_ord(eval_terms(g, b) % gmod, p) for g in gradient])
                if v < k + d:
                    decided[k, v, False] += 1
                elif d < k:
                    decided[k, k + d, True] += 1
                else:
                    undecided.append(b)
        frontier = undecided
    decided[k, 2 * k, False] += len(frontier)  # f = 0 mod p^(2k), and 2k >= mmax
    counts = [0] * (mmax + 1)
    for (level, e, hensel), classes in decided.items():
        for m in range(level, mmax + 1):
            if m <= e:
                counts[m] += classes * p ** (n * (m - level))
            elif hensel:
                counts[m] += classes * p ** (n * (e - level) + (n - 1) * (m - e))
            else:
                break
    return SeriesTable(prime, f, counts, evaluations)


def measure_identity_check(
    f: Polynomial, prime: Prime, m: int, budget: int = DEFAULT_BUDGET
) -> bool:
    """Check N_m = p^(nm) * mu({x : ord f(x) >= m}).

    N_m is series_table's lifted count, which fits in any budget that
    the counting half does; poincare_report runs the same check on its
    own table's N_m.  The counting half is count_Nm: for integral f and
    integer x, ord f(x) >= m exactly when f(x) = 0 mod p^m, so the
    measure is the share of the p^(n m) residues where f vanishes mod
    p^m.  For a monomial in a single variable the measure is also
    computed symbolically through the integration engine and compared;
    other shapes use the counting half only.
    """
    return _identity_holds(f, prime, m, series_table(f, prime, m, budget).counts[m], budget)


def _identity_holds(f: Polynomial, prime: Prime, m: int, Nm: int, budget: int) -> bool:
    """measure_identity_check with the lifted count Nm given."""
    p = prime.p
    n = f.nvars
    if m == 0:
        return Nm == 1
    ok = Nm == count_Nm(f, prime, m, budget)

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


class RationalFunctionT(Record):
    """Q(T) / D(T) with D(0) = 1, reproducing a count table exactly.

    num and den are coefficient lists, lowest degree first.  fit_rational
    holds each integral coefficient of den as an int, and all of num when
    den is integral, so the fit of an integral recurrence, with expand and
    reproduces, stays in ints; other coefficients are Fractions.

    shape lists (mi, Ni) pairs with D = prod (1 - p^-mi T^Ni) when the
    bounded search certifies that factorization (mi may be negative, in
    which case p^-mi is a positive power of p); shape is [] for D = 1, the
    empty product, and None when the denominator does not factor this way
    within the search window.
    """

    __slots__ = ("num", "den", "prime", "shape")

    def __init__(
        self, num: list[Rat], den: list[Rat], prime: Prime,
        shape: Optional[list[tuple[int, int]]] = None,
    ):
        self.num = num
        self.den = den
        self.prime = prime
        self.shape = shape

    def expand(self, count: int) -> list[Rat]:
        out = []
        for m in range(count):
            acc = self.num[m] if m < len(self.num) else 0
            for i in range(1, min(m, len(self.den) - 1) + 1):
                acc -= self.den[i] * out[m - i]
            out.append(acc)
        return out

    def reproduces(self, counts: list[int]) -> bool:
        return self.expand(len(counts)) == list(counts)

    def render_num(self) -> str:
        return render_powers(enumerate(self.num), "T")

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
            return "".join(parts) or "1"
        return render_powers(enumerate(self.den), "T")

    def __repr__(self):
        return f"RationalFunctionT({self.render_num()} / {self.render_den()})"


def _pow_str(p: int, k: int) -> str:
    if k >= 0:
        return str(p**k)
    return f"1/{p ** (-k)}"


def _minimal_recurrence(s: list[int]) -> tuple[int, list[Rat]]:
    """Berlekamp-Massey on integers: the least L and c_1..c_L with
    s[m] = sum c_i s[m-i] for every L <= m < len(s).

    Fraction-free: where the rational algorithm subtracts
    (disc / prev_disc) T^shift prev from the connection polynomial conn,
    this one sets conn = prev_disc*conn - disc*T^shift*prev, a nonzero
    multiple of the rational conn, and then divides out its content;
    conn[0] is only multiplied by the nonzero prev_disc and divided by a
    content, so it is never 0.  Discrepancies scale by the same multiples,
    so L and the ratios conn[i] / conn[0] are those of the rational
    algorithm; c_i = -conn[i] / conn[0], an int where it is integral."""
    n = len(s)
    conn = [1] + [0] * n  # a multiple of 1 - sum c_i T^i, the current recurrence
    prev = conn[:]  # the recurrence before the last change of L
    L, shift, prev_disc = 0, 1, 1
    for m in range(n):
        disc = sum(conn[i] * s[m - i] for i in range(L + 1))
        if disc == 0:
            shift += 1
            continue
        old = conn[:]
        conn = [prev_disc * c for c in conn]
        for i in range(n + 1 - shift):
            conn[i + shift] -= disc * prev[i]
        content = gcd(*conn)
        conn = [c // content for c in conn]
        if 2 * L <= m:
            L, prev, prev_disc, shift = m + 1 - L, old, disc, 1
        else:
            shift += 1
    lead = conn[0]
    return L, [-c // lead if c % lead == 0 else Fraction(-c, lead) for c in conn[1 : L + 1]]


def fit_rational(
    table: SeriesTable, guard: int = 5
) -> Union[RationalFunctionT, _Undetermined]:
    """Minimal verified linear recurrence, reconstructed as Q(T)/D(T).

    Berlekamp-Massey finds the least order L of a recurrence on the prefix
    that excludes the final guard entries.  When 2L <= len(prefix) the
    recurrence of order L is unique (Massey 1969).  If it fails on a guard
    entry, every recurrence that holds on the whole table has order at
    least len(prefix) + 1 - L, more than len(prefix)/2, which the prefix
    cannot determine.  So the fit is UNDETERMINED when 2L > len(prefix),
    and when Q/D does not reproduce every entry of the table, guard
    entries included; since Q is D times the counts, truncated below T^L,
    that reproduction is exactly the recurrence holding on every entry.
    """
    if guard < 3:
        raise ValueError("guard must be >= 3")
    counts = table.counts
    prefix = len(counts) - guard
    if prefix < 2:  # an order-1 recurrence is fitted on two entries
        return UNDETERMINED
    L, coeffs = _minimal_recurrence(counts[:prefix])
    if L > prefix // 2:
        return UNDETERMINED
    den = trim([1] + [-c for c in coeffs])
    num = trim(poly_mul(den, counts[:L])[:L])
    candidate = RationalFunctionT(num, den, table.prime)
    if not candidate.reproduces(table.counts):
        return UNDETERMINED
    candidate.shape = _certify_shape(candidate.den, table.prime.p, table.f.nvars)
    return candidate


def _certify_shape(
    den: list[Rat], p: int, nvars: int
) -> Optional[list[tuple[int, int]]]:
    """Factor D(T) as prod (1 - p^-mi T^Ni) with |mi| <= nvars * Ni, by
    depth-first exhaustive search; None when no such factorization exists.

    A candidate is tested without dividing.  With c = p^-mi, T^Ni is 1/c
    modulo 1 - c T^Ni, so the remainder of D is
    sum_r (sum_k D[r + k Ni] c^-k) T^r over r < Ni, and the factor divides
    D exactly when every exponent class r sums to 0.  That test runs in
    integers, on D over its common denominator, each class's weights
    c^-k = p^(mi k) scaled to the powers p^(|mi| j) by p^(-mi K) at its
    top k = K when mi < 0.  Only then is the quotient built, by
    Q_j = D_j + c Q_(j-Ni)."""
    deg = len(den) - 1
    if deg == 0:
        return [] if den == [1] else None
    scale = lcm(*(c.denominator for c in den))
    ints = [c.numerator * (scale // c.denominator) for c in den]
    for Ni in range(1, deg + 1):
        classes = [ints[r::Ni] for r in range(Ni)]
        for mi in range(-nvars * Ni, nvars * Ni + 1):
            # each class's sum by Horner in p^|mi|, from its top k, or from
            # k = 0 when mi < 0
            step = p ** abs(mi)
            if any(_horner(cls if mi < 0 else cls[::-1], step) for cls in classes):
                continue
            coef = Fraction(1, p**mi) if mi > 0 else p**-mi
            quot: list[Rat] = []
            for j in range(deg - Ni + 1):
                quot.append(den[j] + coef * quot[j - Ni] if j >= Ni else den[j])
            rest = _certify_shape(quot, p, nvars)
            if rest is not None:
                return sorted([(mi, Ni)] + rest, key=lambda s: (s[1], s[0]))
    return None


def _horner(coeffs: list[int], x: int) -> int:
    """sum coeffs[i] x^(len - 1 - i): the first coefficient is the highest."""
    acc = 0
    for c in coeffs:
        acc = acc * x + c
    return acc


# -- the bundled report --------------------------------------------------------


class PoincareReport(Record):
    __slots__ = ("table", "rational", "checks", "guard")

    def __init__(
        self, table: SeriesTable, rational: Union[RationalFunctionT, _Undetermined],
        checks: list[tuple[int, bool]], guard: int,
    ):
        self.table = table
        self.rational = rational
        self.checks = checks
        self.guard = guard

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
                factors = " ".join(f"(1 - p^{-mi}*T^{Ni})" for mi, Ni in self.rational.shape)
                lines.append("shape: " + (factors or "1"))
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

    The report lifts once: each check compares its table's own N_m with
    the measure.  The identity check at m enumerates the p^(n m) points
    once, so checks run for m up to check_mmax (at most mmax) within the
    budget.  Without check_mmax they run for m = 0 and 1 and then for
    every further m while all the points they enumerate stay within p^n
    times the classes the lifting evaluated, so they cost about what the
    lifting did."""
    if mmax < 0:
        raise ValueError("mmax must be >= 0")
    if check_mmax is not None and check_mmax < 0:
        raise ValueError("check_mmax must be >= 0")
    table = series_table(f, prime, mmax, budget)
    rational = fit_rational(table, guard)
    checks = []
    p = prime.p
    n = f.nvars
    cap = p**n * table.evaluations
    limit = mmax if check_mmax is None else min(check_mmax, mmax)
    enumerated = 0
    for m in range(0, limit + 1):
        points = p ** (n * m)
        enumerated += points
        if points > budget or (check_mmax is None and m > 1 and enumerated > cap):
            break
        checks.append((m, _identity_holds(f, prime, m, table.counts[m], budget)))
    return PoincareReport(table, rational, checks, guard)
