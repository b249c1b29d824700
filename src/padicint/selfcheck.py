"""Deterministic oracle-vs-symbolic cross-validation suite.

Each check pits a closed-form computation against an independent
enumeration on a seeded random sample.  The CLI `check` subcommand runs
everything here and exits nonzero on any mismatch; the test suite runs
larger versions of the same comparisons.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .aqring import AqElem
from .integrate import (
    ConstructibleExpr,
    Domain,
    IntScale,
    K_SORT,
    GAMMA_SORT,
    OrdExpr,
    Term,
    UNIT_BALL,
    brute_force_integrate,
    identity_lin,
    integrate,
)
from .kcells import KCell, kcell_measure, partition_unit_ball
from .padic import AngularResidue, Prime
from .polys import Polynomial, poly_eval
from .poincare import RationalFunctionT, fit_rational, measure_identity_check, series_table
from .presburger import (
    GammaCell,
    gamma_weight_sum,
    geom_sum,
    weighted_sum,
    wellorder_key,
    wellorder_min,
)

SEED = 20240811


def _random_bounded_cell(rng: random.Random) -> GammaCell:
    mod = rng.randint(1, 4)
    res = rng.randrange(mod)
    lower = rng.randint(-8, 6)
    upper = lower + rng.randint(1, 12)
    return GammaCell(lower, upper, mod, res)


def check_presburger_sums(samples: int = 60) -> tuple[str, bool, str]:
    rng = random.Random(SEED)
    for _ in range(samples):
        cell = _random_bounded_cell(rng)
        for N in (1, 2, 3):
            closed = geom_sum(cell, N)
            deg = rng.randint(0, 2)
            poly = [Fraction(rng.randint(-3, 3)) for _ in range(deg + 1)]
            weighted = weighted_sum(cell, poly, N)
            for q in (2, 3, 5):
                direct = sum(
                    (Fraction(q) ** (-N * ((g - cell.res) // cell.mod)) for g in cell.members()),
                    Fraction(0),
                )
                if closed.eval_at(q) != direct:
                    return "presburger.geom_sum", False, f"{cell} N={N} q={q}"
                wdirect = sum(
                    (
                        poly_eval(poly, (g - cell.res) // cell.mod)
                        * Fraction(q) ** (-N * ((g - cell.res) // cell.mod))
                        for g in cell.members()
                    ),
                    Fraction(0),
                )
                if weighted.eval_at(q) != wdirect:
                    return "presburger.weighted_sum", False, f"{cell} N={N} q={q}"
    # tails of unbounded cells
    for _ in range(20):
        mod = rng.randint(1, 3)
        cell = GammaCell(rng.randint(-1, 6), None, mod, rng.randrange(mod))
        N = rng.randint(1, 3)
        closed = geom_sum(cell, N)
        a, _ = cell.tau_bounds()
        for q in (2, 3):
            depth = 30
            partial = sum(
                (Fraction(q) ** (-N * (a + j)) for j in range(depth)), Fraction(0)
            )
            tail = Fraction(q) ** (-N * depth) / (1 - Fraction(q) ** (-N))
            if abs(closed.eval_at(q) - partial) > tail:
                return "presburger.tail", False, f"{cell} N={N} q={q}"
    return "presburger.sums_vs_enumeration", True, ""


def check_presburger_additivity(samples: int = 25) -> tuple[str, bool, str]:
    rng = random.Random(SEED + 1)
    for _ in range(samples):
        cell = _random_bounded_cell(rng)
        # refine into residue classes modulo 2*mod
        parts = [
            GammaCell(cell.lower, cell.upper, 2 * cell.mod, cell.res),
            GammaCell(cell.lower, cell.upper, 2 * cell.mod, cell.res + cell.mod),
        ]
        whole = gamma_weight_sum(cell, 1)
        split = gamma_weight_sum(parts[0], 1) + gamma_weight_sum(parts[1], 1)
        if whole != split:
            return "presburger.additivity", False, str(cell)
    return "presburger.additivity", True, ""


def check_wellorder(samples: int = 120, window: int = 2000) -> tuple[str, bool, str]:
    rng = random.Random(SEED + 2)
    for _ in range(samples):
        cells = []
        for _ in range(rng.randint(1, 3)):
            mod = rng.randint(1, 5)
            lower = rng.randint(-window // 2, window // 4) if rng.random() < 0.8 else None
            upper = (
                (lower if lower is not None else 0) + rng.randint(1, window // 2)
                if rng.random() < 0.8
                else None
            )
            cells.append(GammaCell(lower, upper, mod, rng.randrange(mod)))
        nonempty = [c for c in cells if not c.is_empty()]
        if not nonempty:
            continue
        computed = wellorder_min(nonempty)
        scan = None
        for key in range(0, 4 * window + 1):
            candidate = (key + 1) // 2 if key % 2 else -(key // 2)
            if any(c.contains(candidate) for c in nonempty):
                scan = candidate
                break
        if scan is not None and computed != scan:
            return "presburger.wellorder_min", False, f"{nonempty} -> {computed} vs {scan}"
        if scan is None and wellorder_key(computed) <= 4 * window:
            return "presburger.wellorder_min", False, f"scan missed {computed}"
    return "presburger.wellorder_min", True, ""


def check_partition_normalization() -> tuple[str, bool, str]:
    for p in (2, 3, 5):
        prime = Prime(p)
        for M in (1, 2):
            for N in (1, 2, 3):
                cells = partition_unit_ball(M, N, prime)
                total = sum((kcell_measure(c).eval_at(p) for c in cells), Fraction(0))
                if total != 1:
                    return "kcells.normalization", False, f"p={p} M={M} N={N}: {total}"
    return "kcells.normalization", True, ""


def check_translation_invariance(samples: int = 20) -> tuple[str, bool, str]:
    rng = random.Random(SEED + 3)
    for p in (2, 3):
        prime = Prime(p)
        for _ in range(samples):
            mod = rng.randint(1, 3)
            cell = _random_kcell(rng, prime, mod)
            reference = kcell_measure(cell)
            for _ in range(10):
                center = Fraction(rng.randint(-50, 50), rng.choice([1, 1, 3, 7]))
                moved = KCell(
                    center,
                    cell.lower,
                    cell.upper,
                    cell.mod,
                    cell.res,
                    cell.ac_depth,
                    cell.ac_value,
                    prime,
                )
                if kcell_measure(moved) != reference:
                    return "kcells.translation", False, str(cell)
    return "kcells.translation", True, ""


def _random_kcell(rng: random.Random, prime: Prime, mod: int) -> KCell:
    res = rng.randrange(mod)
    lower = rng.randint(-1, 4)
    upper = lower + rng.randint(1, 6) if rng.random() < 0.7 else None
    M = rng.randint(1, 2)
    p = prime.p
    units = [r for r in range(1, p**M) if r % p != 0]
    xi = rng.choice(units)
    return KCell(Fraction(0), lower, upper, mod, res, M, AngularResidue(M, xi), prime)


def check_counting_oracle(samples: int = 12) -> tuple[str, bool, str]:
    rng = random.Random(SEED + 4)
    for p in (2, 3):
        prime = Prime(p)
        for _ in range(samples):
            mod = rng.randint(1, 3)
            cell = _random_kcell(rng, prime, mod)
            if cell.upper is None:
                cell = KCell(
                    cell.center, cell.lower, cell.lower + 4, cell.mod, cell.res,
                    cell.ac_depth, cell.ac_value, prime,
                )
            center = Fraction(rng.randint(0, 8), rng.choice([1, 1, 1 + p]))
            cell = KCell(
                center, cell.lower, cell.upper, cell.mod, cell.res,
                cell.ac_depth, cell.ac_value, prime,
            )
            depth = cell.upper + cell.ac_depth + 1
            count = sum(1 for r in range(p**depth) if cell.contains_value(r))
            expect = kcell_measure(cell).eval_at(p) * p**depth
            if count != expect:
                return "kcells.counting", False, f"{cell}: {count} vs {expect}"
    return "kcells.counting", True, ""


def _corpus(prime: Prime):
    one = ConstructibleExpr.constant(1)
    ox = OrdExpr(Polynomial.variable(0, 1), ("x1",))
    absx = ConstructibleExpr([Term(AqElem.one(), qparts=(IntScale(-1, ox),))])
    iord = ConstructibleExpr([Term(AqElem.one(), zfactors=(ox,))])
    mixed = ConstructibleExpr([Term(AqElem.one(), qparts=(IntScale(-1, ox),), zfactors=(ox,))])
    sq = ConstructibleExpr([Term(AqElem.one(), qparts=(IntScale(-2, ox),))])
    return [
        ("1", one, (1, 0, 0)),
        ("|x|", absx, (1, -1, 0)),
        ("ord x", iord, (1, 0, 1)),
        ("ord(x) q^-ord x", mixed, (1, -1, 1)),
        ("q^-2 ord x", sq, (1, -2, 0)),
    ]


def check_integration_oracle() -> tuple[str, bool, str]:
    for p in (2, 3):
        prime = Prime(p)
        domain = Domain([("x1", K_SORT, UNIT_BALL)], prime)
        for name, f, growth in _corpus(prime):
            symbolic = integrate(f, domain).eval_at(prime)
            for depth in (4, 5, 6):
                oracle = brute_force_integrate(f, domain, depth, growth=growth)
                if abs(symbolic - oracle.value) > oracle.tail_bound:
                    return (
                        "integrate.oracle_agreement",
                        False,
                        f"{name} p={p} depth={depth}",
                    )
    return "integrate.oracle_agreement", True, ""


def check_integration_linearity() -> tuple[str, bool, str]:
    prime = Prime(3)
    domain = Domain([("x1", K_SORT, UNIT_BALL)], prime)
    corpus = _corpus(prime)
    f, g = corpus[1][1], corpus[2][1]
    a = AqElem.q_power(-1)
    b = AqElem.from_rational(3)
    lhs = integrate(f.scale(a) + g.scale(b), domain)
    rhs = integrate(f, domain) * a + integrate(g, domain) * b
    if lhs != rhs:
        return "integrate.linearity", False, ""
    return "integrate.linearity", True, ""


def check_integration_additivity() -> tuple[str, bool, str]:
    prime = Prime(2)
    f = ConstructibleExpr([Term(AqElem.one(), qparts=(IntScale(-1, identity_lin("g1")),))])
    whole = GammaCell(0, None, 1, 0)
    even = GammaCell(0, None, 2, 0)
    odd = GammaCell(0, None, 2, 1)
    d_whole = Domain([("g1", GAMMA_SORT, [whole])], prime)
    d_split = Domain([("g1", GAMMA_SORT, [even, odd])], prime)
    if integrate(f, d_whole) != integrate(f, d_split):
        return "integrate.additivity", False, ""
    return "integrate.additivity", True, ""


def check_integration_fubini() -> tuple[str, bool, str]:
    prime = Prime(3)
    g1 = identity_lin("g1")
    g2 = identity_lin("g2")
    f = ConstructibleExpr(
        [Term(AqElem.one(), qparts=(IntScale(-1, g1), IntScale(-2, g2)), zfactors=(g2,))]
    )
    c1 = GammaCell(0, 9, 2, 1)
    c2 = GammaCell(-1, None, 1, 0)
    one_way = Domain([("g1", GAMMA_SORT, [c1]), ("g2", GAMMA_SORT, [c2])], prime)
    other = Domain([("g2", GAMMA_SORT, [c2]), ("g1", GAMMA_SORT, [c1])], prime)
    if integrate(f, one_way) != integrate(f, other):
        return "integrate.fubini", False, ""
    return "integrate.fubini", True, ""


def check_poincare() -> tuple[str, bool, str]:
    x = Polynomial.variable(0, 1)
    xy = Polynomial(2, {(1, 1): 1})
    cases = [(x * x, Prime(3), 9, 11), (x, Prime(2), 9, 11), (xy, Prime(2), 8, 10)]
    for f, prime, m1, m2 in cases:
        t1 = series_table(f, prime, m1)
        t2 = series_table(f, prime, m2)
        fit1 = fit_rational(t1, guard=5)
        fit2 = fit_rational(t2, guard=5)
        if not isinstance(fit1, RationalFunctionT) or not isinstance(fit2, RationalFunctionT):
            return "poincare.fit", False, f"{f.render()} p={prime.p}"
        if fit1.num != fit2.num or fit1.den != fit2.den:
            return "poincare.fit_stability", False, f"{f.render()} p={prime.p}"
        if not fit1.reproduces(t2.counts[: len(t1.counts)]):
            return "poincare.fit_reproduction", False, f"{f.render()} p={prime.p}"
    for f in (x, x * x, xy):
        for p in (2, 3):
            for m in (1, 2, 3):
                if not measure_identity_check(f, Prime(p), m):
                    return "poincare.measure_identity", False, f"{f.render()} p={p} m={m}"
    return "poincare.counting_vs_symbolic", True, ""


ALL_CHECKS = [
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
]


def run_all_checks() -> list[tuple[str, bool, str]]:
    return [check() for check in ALL_CHECKS]
