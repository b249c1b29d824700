"""Deterministic oracle-vs-symbolic cross-validation suite, and the one home
of its random generators.

Each check pits a closed-form computation against an independent
enumeration, an identity or a second route through the library, on a
seeded sample, and reports under one fixed name whether it passed and, if
not, which comparison failed.  The CLI `check` subcommand runs every check
at its default size and exits nonzero on any mismatch; the test suite runs
the same checks at larger sizes, and its property tests draw from the same
generators: random_gamma_cell, random_kcell, random_region,
random_built_elem, random_polynomial and the parser-text generators.
"""

from __future__ import annotations

import functools
import math
import random
from fractions import Fraction

from .aqring import AqElem, LaurentPoly
from .errors import DivergentSum
from .integrate import (
    ConstructibleExpr,
    Domain,
    K_SORT,
    GAMMA_SORT,
    LinExpr,
    OrdExpr,
    Term,
    UNIT_BALL,
    _ZERO,
    _add_into,
    brute_force_integrate,
    identity_lin,
    integrate,
)
from .kcells import KCell, kcell_measure, kcells_disjoint, partition_unit_ball
from .padic import AngularResidue, Prime
from .polys import Polynomial, poly_eval
from .poincare import RationalFunctionT, count_Nm, fit_rational, measure_identity_check, series_table
from .presburger import (
    GammaCell,
    PreparedLinear,
    gamma_weight_sum,
    geom_sum,
    weighted_sum,
    wellorder_key,
    wellorder_min,
)

SEED = 20240811


def _named(name: str):
    """Report a check as (name, passed, detail) under one fixed name.  The
    wrapped function returns None when every comparison holds, else the
    detail of the first one that failed."""

    def wrap(check):
        @functools.wraps(check)
        def run(*args) -> tuple[str, bool, str]:
            detail = check(*args)
            return name, detail is None, detail or ""

        return run

    return wrap


# -- random cells and ring elements -------------------------------------------


def random_gamma_cell(rng: random.Random, span: int, open_ends: float) -> GammaCell:
    """A value-group cell with modulus 1..6, lower bound in -span..span and
    upper bound 0..3*span above it; each bound is dropped (None) with
    probability open_ends."""
    mod = rng.randint(1, 6)
    lower = rng.randint(-span, span)
    upper = lower + rng.randint(0, 3 * span)
    if rng.random() < open_ends:
        lower = None
    if rng.random() < open_ends:
        upper = None
    return GammaCell(lower, upper, mod, rng.randrange(mod))


def random_kcell(rng: random.Random, prime: Prime, depth: int | None = None) -> KCell:
    """A field cell with angular depth M in 1..2, a unit angular value and
    modulus 1..3, centred at n/d with n in -6..6+2p^2 and d in {1, 1, 1+p},
    so the centre lies in Z_p but need not be an integer.  One cell in ten
    is the point cell {centre}.

    Without depth, the lower bound is in -4..4 (below -1 the cell leaves
    Z_p) and the upper bound 1..6 above it, or None one time in three.
    With depth, the cell lies in Z_p and upper + M <= depth, so it is a
    union of residue classes mod p^depth."""
    p = prime.p
    M = rng.randint(1, 2)
    center = Fraction(rng.randint(-6, 6 + 2 * p * p), rng.choice((1, 1, 1 + p)))
    if rng.random() < 0.1:
        return KCell(center, None, None, 1, 0, M, AngularResidue(M, 0), prime)
    if depth is None:
        lower = rng.randint(-4, 4)
        upper = lower + rng.randint(1, 6) if rng.random() < 2 / 3 else None
    else:
        lower = rng.randint(-1, depth - M - 2)
        upper = rng.randint(lower + 1, depth - M)
    mod = rng.randint(1, 3)
    unit = rng.choice([r for r in range(1, p**M) if r % p])
    return KCell(center, lower, upper, mod, rng.randrange(mod), M, AngularResidue(M, unit), prime)


def random_region(rng: random.Random, prime: Prime):
    """A region of one field variable inside Z_p: UNIT_BALL three times in
    ten, else one or two pairwise disjoint cells of random_kcell."""
    if rng.random() < 0.3:
        return UNIT_BALL
    cells = []
    for _ in range(rng.randint(1, 2)):
        cell = random_kcell(rng, prime)
        while cell.lower is not None and cell.lower < -1:
            cell = random_kcell(rng, prime)
        if all(kcells_disjoint(cell, other) for other in cells):
            cells.append(cell)
    return cells


def _times_factors(num: LaurentPoly, mult: dict[int, int]) -> LaurentPoly:
    for i, k in mult.items():
        for _ in range(k):
            num = num * LaurentPoly({i: 1, 0: -1})
    return num


def random_built_elem(rng: random.Random):
    """M * prod (q^i - 1)^k over a denominator prod (1 - q^-i)^e, with
    indices i up to 24 (the sizes the benchmark's cell sums reach) and
    0-3 factors on each side.  M has 1-5 terms q^-30..q^30 with nonzero
    coefficients n/d, |n/d| <= 9, d <= 4.  Each multiplied-in index also
    enters the denominator with probability 1/2, so that canonicalisation
    has factors to cancel.

    Returns (element, {p: its value at p computed directly} for p = 2, 3,
    5, M, the factors {i: k}, the denominator {i: e})."""

    def indices():
        return {rng.randint(1, 24): rng.randint(1, 2) for _ in range(rng.randint(0, 3))}

    def coeff():
        d = rng.randint(1, 4)
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9 * d), d)

    m = LaurentPoly({rng.randint(-30, 30): coeff() for _ in range(rng.randint(1, 5))})
    mult, den = indices(), indices()
    for i in mult:
        if rng.random() < 0.5:
            den[i] = rng.randint(1, 2)
    values = {}
    for p in (2, 3, 5):
        value = m.eval(p)
        for i, k in mult.items():
            value *= Fraction(p**i - 1) ** k
        for i, e in den.items():
            value /= (1 - Fraction(1, p**i)) ** e
        values[p] = value
    return AqElem(_times_factors(m, mult), den), values, m, mult, den


# -- the checks ------------------------------------------------------------------


@_named("aqring.cancellation_vs_long_division")
def check_aq_cancellation():
    """Canonical forms of 60 pairs of built elements x, y and of x + y and
    x * y: long division finds no denominator factor left to cancel, and
    the values at p = 2, 3, 5 are the ones computed directly, so the
    running-sum quotient of canonicalisation is checked against
    LaurentPoly.divexact.  A multiplied-in factor alone over its own
    denominator clears it, and among others the denominator loses degree
    (a smaller factor dividing it may cancel first)."""
    rng = random.Random(SEED + 6)
    for _ in range(60):
        x, xv, m, mult, den = random_built_elem(rng)
        y, yv, *_ = random_built_elem(rng)
        for what, elem, values in (
            ("x", x, xv),
            ("x + y", x + y, {p: xv[p] + yv[p] for p in xv}),
            ("x * y", x * y, {p: xv[p] * yv[p] for p in xv}),
        ):
            for i in elem.den:
                if elem.num.divexact(LaurentPoly({i: 1, 0: -1})) is not None:
                    return f"{what} = {elem.render()}: (1-q^-{i}) is left to cancel"
            for p, value in values.items():
                if elem.eval_at(p) != value:
                    return f"{what} = {elem.render()} at p={p}"
        for i, k in mult.items():
            if AqElem(_times_factors(m, {i: k}), {i: k}).den:
                return f"{m.render()} * (q^{i} - 1)^{k} over (1-q^-{i})^{k}"
        degree = sum(i * e for i, e in x.den.items())
        if set(mult) & set(den) and degree >= sum(i * e for i, e in den.items()):
            return f"{x.render()}: no factor of {den} cancelled"
    return None


def _power_sum(weights: list[int], first: int, y: int) -> Fraction:
    """The sum of weights[i] * y^-(first + i), by Horner's rule in int
    arithmetic."""
    total = 0
    for w in weights:
        total = total * y + w
    return total / Fraction(y) ** (first + len(weights) - 1)


@_named("presburger.sums_vs_enumeration")
def check_presburger_sums(samples: int = 60):
    """On bounded cells, geom_sum for N = 1..3 and weighted_sum for
    N = 0..3 (weights of degree 0..3 with coefficients n/d, |n| <= 4,
    d <= 3) against the sums over the members.  On the unbounded tail of
    each cell, geom_sum against its first 5, 15 and 30 terms plus the
    exact remainder.  All at q = 2, 3, 5."""
    rng = random.Random(SEED)
    for _ in range(samples):
        cell = random_gamma_cell(rng, 10, 0.0)
        poly = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rng.randint(1, 4))]
        scale = math.lcm(*(c.denominator for c in poly))
        taus = [(g - cell.res) // cell.mod for g in cell.members()]
        weights = [int(poly_eval(poly, t) * scale) for t in taus]
        first = taus[0] if taus else 0
        for N in range(4):
            closed = geom_sum(cell, N) if N else None
            weighted = weighted_sum(cell, poly, N)
            for q in (2, 3, 5):
                if closed is not None and closed.eval_at(q) != _power_sum([1] * len(taus), first, q**N):
                    return f"geom_sum {cell} N={N} q={q}"
                if weighted.eval_at(q) * scale != _power_sum(weights, first, q**N):
                    return f"weighted_sum {cell} {poly} N={N} q={q}"
        tail = GammaCell(cell.lower, None, cell.mod, cell.res)
        least = cell.lower + 1 + (cell.res - cell.lower - 1) % cell.mod
        a = (least - cell.res) // cell.mod
        if tail.tau_bounds()[0] != a:
            return f"tau_bounds {tail}: first tau {a}"
        for N in (1, 2, 3):
            closed = geom_sum(tail, N)
            for q in (2, 3, 5):
                y, value = q**N, closed.eval_at(q)
                for depth in (5, 15, 30):
                    rest = Fraction(y) ** -(a + depth) / (1 - Fraction(1, y))
                    if value - _power_sum([1] * depth, a, y) != rest:
                        return f"tail {tail} N={N} q={q} depth={depth}"
    return None


def _weight_sum(cell: GammaCell):
    """gamma_weight_sum(cell, 1), or None where it diverges."""
    try:
        return gamma_weight_sum(cell, 1)
    except DivergentSum:
        return None


@_named("presburger.additivity")
def check_presburger_additivity(samples: int = 25):
    """gamma_weight_sum of a cell, bounded or not, against the sum over its
    refinements into residue classes modulo 2*mod and 3*mod; where it
    diverges, a refinement diverges too."""
    rng = random.Random(SEED + 1)
    for _ in range(samples):
        cell = random_gamma_cell(rng, 10, 0.3)
        whole = _weight_sum(cell)
        for k in (2, 3):
            parts = [
                _weight_sum(GammaCell(cell.lower, cell.upper, k * cell.mod, cell.res + i * cell.mod))
                for i in range(k)
            ]
            split = None if None in parts else sum(parts, AqElem.zero())
            if whole != split:
                return f"{cell} split {k} ways"
    return None


@_named("presburger.wellorder_min")
def check_wellorder(samples: int = 120):
    """wellorder_min of 1-3 cells against a scan of 0, 1, -1, 2, -2, ...
    over the first 2*10^4 + 1 keys; a minimum the scan misses lies past it."""
    rng = random.Random(SEED + 2)
    scan_keys = 2 * 10**4 + 1
    for _ in range(samples):
        cells = [random_gamma_cell(rng, 4000, 0.2) for _ in range(rng.randint(1, 3))]
        cells = [c for c in cells if not c.is_empty()]
        if not cells:
            continue
        computed = wellorder_min(cells)
        scan = None
        for key in range(scan_keys):
            g = (key + 1) // 2 if key % 2 else -(key // 2)
            if any(c.contains(g) for c in cells):
                scan = g
                break
        if scan is not None and computed != scan:
            return f"{cells} -> {computed} vs {scan}"
        if scan is None and wellorder_key(computed) < scan_keys:
            return f"{cells}: the scan missed {computed}"
    return None


@_named("kcells.normalization")
def check_partition_normalization():
    """partition_unit_ball(M, N) at p = 2, 3, 5, M = 1, 2 and N = 1..3:
    the measures sum to 1 and the cells are pairwise disjoint."""
    for p in (2, 3, 5):
        prime = Prime(p)
        for M in (1, 2):
            for N in (1, 2, 3):
                cells = partition_unit_ball(M, N, prime)
                total = sum((kcell_measure(c).eval_at(p) for c in cells), Fraction(0))
                if total != 1:
                    return f"p={p} M={M} N={N}: total measure {total}"
                for i, c in enumerate(cells):
                    for other in cells[i + 1 :]:
                        if not kcells_disjoint(c, other):
                            return f"p={p} M={M} N={N}: {c} meets {other}"
    return None


@_named("kcells.translation")
def check_translation_invariance(samples: int = 20):
    """The measure of a cell at p = 2, 3 against the measures of 100 copies
    moved to centres n/d, |n| <= 10^9, d <= 10^4."""
    rng = random.Random(SEED + 3)
    for p in (2, 3):
        prime = Prime(p)
        for _ in range(samples):
            cell = random_kcell(rng, prime)
            reference = kcell_measure(cell)
            for _ in range(100):
                center = Fraction(rng.randint(-(10**9), 10**9), rng.randint(1, 10**4))
                c = cell
                moved = KCell(center, c.lower, c.upper, c.mod, c.res, c.ac_depth, c.ac_value, c.prime)
                if kcell_measure(moved) != reference:
                    return f"{cell} moved to {center}"
    return None


@_named("kcells.counting")
def check_counting_oracle(samples: int = 12):
    """The measure of a bounded cell of positive measure at p = 2, 3 times
    p^D against a count of the residue classes mod p^D that lie in it, one
    point tested per class; D = upper + M + 1 resolves every membership
    test.  The classes cover the ball c + p^lower Z_p around the centre c,
    which holds the cell and the shell ord(t - c) = lower outside it.  Each
    is tested at a + p^lower s with a = c mod p^lower an integer, so that
    t - c is computed by the cell, not given to it."""
    rng = random.Random(SEED + 4)
    for p in (2, 3):
        prime = Prime(p)
        counted = 0
        while counted < samples:
            cell = random_kcell(rng, prime)
            if cell.upper is None or cell.ac_value.r == 0:
                continue
            counted += 1
            depth, c = cell.upper + cell.ac_depth + 1, cell.center
            # a + p^lower s is (a + num s) / den
            num, den = p ** max(cell.lower, 0), p ** max(-cell.lower, 0)
            a = c.numerator * pow(c.denominator, -1, num) % num
            classes = range(p ** (depth - cell.lower))
            count = sum(1 for s in classes if cell.contains_value(Fraction(a + num * s, den)))
            expect = kcell_measure(cell).eval_at(p) * p**depth
            if count != expect:
                return f"{cell}: {count} residues vs {expect}"
    return None


def _corpus():
    """The integrands of one field variable x1 that the oracle checks, as
    (name, integrand, growth claim (C, c, dg) for brute_force_integrate)."""
    ox = OrdExpr(Polynomial.variable(0, 1), ("x1",))
    return [
        ("1", ConstructibleExpr.constant(1), (1, 0, 0)),
        ("|x|", ConstructibleExpr.q_exponent((0, {ox: -1})), (1, -1, 0)),
        ("ord x", ConstructibleExpr.factor((0, {ox: 1})), (1, 0, 1)),
        ("ord(x) q^-ord x", ConstructibleExpr([Term(AqElem.one(), (0, {ox: -1}), [(0, {ox: 1})])]), (1, -1, 1)),
        ("q^-2 ord x", ConstructibleExpr.q_exponent((0, {ox: -2})), (1, -2, 0)),
    ]


@_named("integrate.oracle_agreement")
def check_integration_oracle():
    """integrate against brute_force_integrate at depths 4..8 on the unit
    ball at p = 2, 3, for every integrand of _corpus: they differ by no
    more than the oracle's tail bound.  |x| and ord x integrate to p/(p+1)
    and 1/(p-1)."""
    for p in (2, 3):
        prime = Prime(p)
        domain = Domain([("x1", K_SORT, UNIT_BALL)], prime)
        closed = {"|x|": Fraction(p, p + 1), "ord x": Fraction(1, p - 1)}
        for name, f, growth in _corpus():
            symbolic = integrate(f, domain).eval_at(prime)
            if symbolic != closed.get(name, symbolic):
                return f"{name} p={p}: {symbolic}"
            for depth in range(4, 9):
                oracle = brute_force_integrate(f, domain, depth, growth=growth)
                if abs(symbolic - oracle.value) > oracle.tail_bound:
                    return f"{name} p={p} depth={depth}"
    return None


@_named("integrate.linearity")
def check_integration_linearity():
    """integrate(a f + b g) = a integrate(f) + b integrate(g) on the unit
    ball at p = 2, 3, with f = |x|, g = ord x, a = q^-1 and b = 3."""
    corpus = _corpus()
    f, g = corpus[1][1], corpus[2][1]
    a, b = AqElem.q_power(-1), AqElem.from_rational(3)
    for p in (2, 3):
        domain = Domain([("x1", K_SORT, UNIT_BALL)], Prime(p))
        if integrate(f.scale(a) + g.scale(b), domain) != integrate(f, domain) * a + integrate(g, domain) * b:
            return f"p={p}"
    return None


@_named("integrate.additivity")
def check_integration_additivity():
    """q^-g1 over g1 >= 1 against its sum over the even and the odd g1; |x|
    over the unit ball at p = 3 against its sum over partition_unit_ball(1,
    2), which carries its cell count as a literal and so agrees at q = 3,
    and against (1 - q^-1) / (1 - q^-2)."""
    prime = Prime(2)
    f = ConstructibleExpr.q_exponent((0, {identity_lin("g1"): -1}))
    d_whole = Domain([("g1", GAMMA_SORT, [GammaCell(0, None, 1, 0)])], prime)
    d_split = Domain([("g1", GAMMA_SORT, [GammaCell(0, None, 2, 0), GammaCell(0, None, 2, 1)])], prime)
    if integrate(f, d_whole) != integrate(f, d_split):
        return "value group: g1 >= 1 vs even and odd g1"
    prime = Prime(3)
    absx = _corpus()[1][1]
    ball = integrate(absx, Domain([("x1", K_SORT, UNIT_BALL)], prime))
    cells = integrate(absx, Domain([("x1", K_SORT, partition_unit_ball(1, 2, prime))], prime))
    if cells.eval_at(prime) != ball.eval_at(prime):
        return "field: unit ball vs partition_unit_ball(1, 2) at p=3"
    if ball != (1 - AqElem.q_power(-1)) * AqElem.geom(2):
        return f"field: |x| over the unit ball is {ball.render()}"
    return None


@_named("integrate.fubini")
def check_integration_fubini():
    """Both orders of integration of q^(-g1 - 2 g2) g2 over 0 < g1 < 9,
    g1 odd, and g2 >= 0 at p = 3, and of q^(-ord x1 - ord x2) over the unit
    ball of Z_2^2, whose value is (2/3)^2."""
    g1, g2 = identity_lin("g1"), identity_lin("g2")
    f = ConstructibleExpr([Term(AqElem.one(), (0, {g1: -1, g2: -2}), [(0, {g2: 1})])])
    c1, c2 = GammaCell(0, 9, 2, 1), GammaCell(-1, None, 1, 0)
    prime = Prime(3)
    one_way = Domain([("g1", GAMMA_SORT, [c1]), ("g2", GAMMA_SORT, [c2])], prime)
    other = Domain([("g2", GAMMA_SORT, [c2]), ("g1", GAMMA_SORT, [c1])], prime)
    if integrate(f, one_way) != integrate(f, other):
        return "value group: g1, g2 vs g2, g1"
    ords = [OrdExpr(Polynomial.variable(0, 1), (name,)) for name in ("x1", "x2")]
    f = ConstructibleExpr.q_exponent((0, dict.fromkeys(ords, -1)))
    prime = Prime(2)
    one_way = integrate(f, Domain([("x1", K_SORT, UNIT_BALL), ("x2", K_SORT, UNIT_BALL)], prime))
    other = integrate(f, Domain([("x2", K_SORT, UNIT_BALL), ("x1", K_SORT, UNIT_BALL)], prime))
    if one_way != other or one_way.eval_at(prime) != Fraction(4, 9):
        return f"field: x1, x2 gives {one_way.render()}, x2, x1 {other.render()}"
    return None


@_named("poincare.counting_vs_symbolic")
def check_poincare(mmax: int = 3):
    """fit_rational on the lifted counts finds each known denominator, a
    product of (1 - p^-mi T^Ni), and a shape for it; two more counts give
    the same fit, which reproduces them.  measure_identity_check holds for
    x1, x1^2, x1^3, x1 x2, x1^2 + x2^2 and x1^2 - x2^2 at p = 2, 3 and
    m = 0..mmax."""
    x = Polynomial.variable(0, 1)
    xy = Polynomial(2, {(1, 1): 1})
    cases = [
        (x, Prime(2), 9, [1, -1]),
        (x * x, Prime(3), 9, [1, 0, -3]),
        (x**3, Prime(2), 10, [1, 0, 0, -4]),
        (xy, Prime(2), 8, [1, -4, 4]),
        (x * x + Polynomial.constant(1, 1), Prime(3), 9, [1]),
    ]
    for f, prime, m, den in cases:
        where = f"{f.render()} p={prime.p}"
        t1, t2 = series_table(f, prime, m), series_table(f, prime, m + 2)
        fit1, fit2 = fit_rational(t1, guard=5), fit_rational(t2, guard=5)
        if not isinstance(fit1, RationalFunctionT) or not isinstance(fit2, RationalFunctionT):
            return f"fit: {where} undetermined"
        if fit1.den != den or fit1.shape is None:
            return f"fit: {where}: D = {fit1.render_den()}"
        if fit1.num != fit2.num or fit1.den != fit2.den:
            return f"fit stability: {where}"
        if not fit1.reproduces(t2.counts[: len(t1.counts)]):
            return f"fit reproduction: {where}"
    squares = [Polynomial(2, {(2, 0): 1, (0, 2): sign}) for sign in (1, -1)]
    for f in [x, x * x, x**3, xy] + squares:
        for p in (2, 3):
            for m in range(mmax + 1):
                if not measure_identity_check(f, Prime(p), m):
                    return f"measure identity: {f.render()} p={p} m={m}"
    return None


# "general" draws a sparse polynomial; the other shapes have a gradient
# that vanishes mod p on some or all of their solutions mod p
POLYNOMIAL_SHAPES = ("zero", "p-constant", "p*x1", "x1^2+x2^2", "x1^p", "general")


def random_polynomial(rng: random.Random, p: int, shape: str = "general") -> Polynomial:
    """An integer polynomial in 1-3 variables of the given shape.

    "p-constant" is p, 2p, -p or p^2; "x1^2+x2^2" is singular mod 2.  A
    general polynomial sums 1-4 monomials with exponents 0..p per variable
    and coefficients in -3..3, a third of them multiplied by p."""
    n = rng.randint(2 if shape == "x1^2+x2^2" else 1, 3)
    x1 = Polynomial.variable(0, n)
    if shape == "zero":
        return Polynomial(n)
    if shape == "p-constant":
        return Polynomial.constant(rng.choice((p, 2 * p, -p, p * p)), n)
    if shape == "p*x1":
        return Polynomial.constant(p, n) * x1
    if shape == "x1^2+x2^2":
        return x1 * x1 + Polynomial.variable(1, n) ** 2
    if shape == "x1^p":
        return x1**p
    if shape != "general":
        raise ValueError(f"unknown polynomial shape {shape!r}")
    terms: dict = {}
    for _ in range(rng.randint(1, 4)):
        exps = tuple(rng.randint(0, p) for _ in range(n))
        c = rng.randint(-3, 3) * (p if rng.random() < 1 / 3 else 1)
        terms[exps] = terms.get(exps, 0) + c
    return Polynomial(n, terms)


def lifting_matches_enumeration(f: Polynomial, prime: Prime, points: int) -> bool:
    """series_table against count_Nm for every m with p^(n m) <= points."""
    mmax = 0
    while prime.p ** (f.nvars * (mmax + 1)) <= points:
        mmax += 1
    counts = [count_Nm(f, prime, m) for m in range(mmax + 1)]
    return series_table(f, prime, mmax).counts == counts


@_named("poincare.lifting_vs_enumeration")
def check_lifting():
    """lifting_matches_enumeration at p = 2, 3, 5, up to 729 points per
    count, for one polynomial of each special shape and six general ones."""
    rng = random.Random(SEED + 5)
    for p in (2, 3, 5):
        prime = Prime(p)
        for shape in POLYNOMIAL_SHAPES[:-1] + ("general",) * 6:
            f = random_polynomial(rng, p, shape)
            if not lifting_matches_enumeration(f, prime, 729):
                return f"{f.render()} p={p}"
    return None


# -- random parser inputs ----------------------------------------------------
#
# Each generator returns a text and the value that the same sums, products
# and powers give in the algebra of Polynomial or ConstructibleExpr, folded
# in the order the grammar reads them (README "Grammar"), with group()
# applied to each parenthesised sum.  Separators are "", " " or a newline;
# exponents stay at most 3, so an integrand keeps to a few hundred terms.


def _sep(rng: random.Random) -> str:
    return rng.choice(("", "", " ", " ", " ", "\n"))


def _random_sum(rng: random.Random, leaf, group, depth: int):
    """(text, build) of [-] product {(+|-) product}; build() folds the
    products left to right, negating the first one after a leading '-'."""
    parts = [_random_product(rng, leaf, group, depth) for _ in range(rng.randint(1, 3))]
    signs = [rng.random() < 0.3] + [rng.random() < 0.5 for _ in parts[1:]]
    text = ("-" + _sep(rng) if signs[0] else "") + parts[0][0]
    for negative, (t, _) in zip(signs[1:], parts[1:]):
        text += _sep(rng) + ("-" if negative else "+") + _sep(rng) + t

    def build():
        total = parts[0][1]()
        if signs[0]:
            total = -total
        for negative, (_, b) in zip(signs[1:], parts[1:]):
            total = total - b() if negative else total + b()
        return total

    return text, build


def _random_product(rng: random.Random, leaf, group, depth: int):
    factors = [_random_power(rng, leaf, group, depth) for _ in range(rng.randint(1, 3))]
    text = (_sep(rng) + "*" + _sep(rng)).join(t for t, _ in factors)

    def build():
        total = factors[0][1]()
        for _, b in factors[1:]:
            total = total * b()
        return total

    return text, build


def _random_power(rng: random.Random, leaf, group, depth: int):
    if depth and rng.random() < 0.3:
        inner, build = _random_sum(rng, leaf, group, depth - 1)
        text, base = "(" + _sep(rng) + inner + _sep(rng) + ")", lambda: group(build())
    else:
        text, base = leaf()
    if rng.random() < 0.25:
        n = rng.randint(0, 3)
        return text + _sep(rng) + "^" + _sep(rng) + str(n), lambda: base() ** n
    return text, base


def random_polynomial_text(
    rng: random.Random, nvars: int = 3, depth: int = 2
) -> tuple[str, Polynomial]:
    """A polynomial text over x1..x{nvars} and its Polynomial, whose arity
    is the largest index the text names (0 when it names none); depth
    bounds the nesting of parentheses."""
    arity = [0]

    def leaf():
        if rng.random() < 0.4:
            c = rng.randint(0, 9)
            return str(c), lambda: Polynomial.constant(c, arity[0])
        i = rng.randint(1, nvars)
        arity[0] = max(arity[0], i)
        return f"x{i}", lambda: Polynomial.variable(i - 1, arity[0])

    text, build = _random_sum(rng, leaf, lambda poly: poly, depth)
    return text, build()


def _random_ord(rng: random.Random) -> tuple[str, OrdExpr]:
    text, poly = random_polynomial_text(rng, depth=1)
    names = tuple(f"x{i + 1}" for i in range(poly.nvars))
    return "ord(" + _sep(rng) + text + _sep(rng) + ")", OrdExpr(poly, names)


def _random_lin(rng: random.Random) -> tuple[str, LinExpr]:
    a, k, n, delta = rng.randint(-3, 3), rng.randint(0, 3), rng.randint(1, 3), rng.randint(-3, 3)
    var = f"g{rng.randint(1, 2)}"
    return f"lin({a},{k},{n},{delta};{var})", LinExpr(PreparedLinear(a, k, n, delta), var)


def _random_int_atom(rng: random.Random, depth: int, literal: bool):
    """An ord, lin, literal (only where literal is set) or parenthesised
    integer expression, and its affine form."""
    roll = rng.random()
    if depth and roll < 0.2:
        inner, form = _random_int_expr(rng, depth - 1)
        return "(" + inner + ")", form
    if literal and roll < 0.4:
        c = rng.randint(0, 5)
        return str(c), (c, {})
    text, leaf = _random_ord(rng) if roll < 0.7 else _random_lin(rng)
    return text, (0, {leaf: 1})


def _random_int_expr(rng: random.Random, depth: int) -> tuple[str, tuple[int, dict]]:
    """An exponent text and its affine form (c0, {leaf: c}), summed here
    term by term: a literal c adds +-c to c0, c*atom adds +-c times the
    atom's form (a leaf scaled by 0 keeps its key), and an atom alone adds
    its form, negated after a '-'."""
    texts, c0, lin = [], 0, {}
    for i in range(rng.randint(1, 3)):
        sign = -1 if rng.random() < 0.4 else 1
        roll = rng.random()
        if roll < 0.25:
            c = rng.randint(0, 9)
            text, c0 = str(c), c0 + sign * c
        else:
            text, (ac, alin) = _random_int_atom(rng, depth, literal=roll < 0.5)
            scalar = sign
            if roll < 0.5:
                c = rng.randint(0, 5)
                text, scalar = f"{c}{_sep(rng)}*{_sep(rng)}{text}", sign * c
            c0 += scalar * ac
            for leaf, x in alin.items():
                lin[leaf] = lin.get(leaf, 0) + scalar * x
        sign_text = ("-" if sign < 0 else "") if i == 0 else ("-" if sign < 0 else "+")
        texts.append(sign_text + _sep(rng) + text)
    return _sep(rng).join(texts), (c0, lin)


def _folded(expr: ConstructibleExpr) -> ConstructibleExpr:
    """A parenthesised sum as the grammar reads it: when each term is an
    integer times at most one factor form, and none has a q^(...) factor,
    one factor, the sum of those forms (one integer when it names no
    leaf); else its terms."""
    if any(t.q is not _ZERO or len(t.factors) > 1 for t in expr.terms):
        return expr
    c0, lin = 0, {}
    for t in expr.terms:
        c, (f0, flin) = t.coeff.as_rational().numerator, t.factors[0] if t.factors else (1, {})
        c0, lin = c0 + c * f0, _add_into(lin, flin, c)
    return ConstructibleExpr.factor((c0, lin)) if lin else ConstructibleExpr.constant(c0)


def random_integrand_text(rng: random.Random) -> tuple[str, ConstructibleExpr]:
    """An integrand text over x1..x3 and g1, g2 and the ConstructibleExpr
    that constant, q_exponent, factor, +, -, * and ** give for it, with
    each parenthesised sum folded as the grammar folds it (_folded)."""

    def leaf():
        roll = rng.random()
        if roll < 0.25:
            c = rng.randint(0, 9)
            return str(c), lambda: ConstructibleExpr.constant(c)
        if roll < 0.55:
            text, e = _random_int_expr(rng, 1)
            text = "q" + _sep(rng) + "^" + _sep(rng) + "(" + text + ")"
            return text, lambda: ConstructibleExpr.q_exponent(e)
        text, atom = _random_ord(rng) if roll < 0.8 else _random_lin(rng)
        return text, lambda: ConstructibleExpr.factor((0, {atom: 1}))

    text, build = _random_sum(rng, leaf, _folded, 1)
    return text, build()


ALL_CHECKS = [
    check_aq_cancellation,
    check_presburger_sums,
    check_presburger_additivity,
    check_wellorder,
    check_partition_normalization,
    check_translation_invariance,
    check_counting_oracle,
    check_integration_oracle,
    check_integration_linearity,
    check_integration_additivity,
    check_integration_fubini,
    check_poincare,
    check_lifting,
]


def run_all_checks() -> list[tuple[str, bool, str]]:
    return [check() for check in ALL_CHECKS]
