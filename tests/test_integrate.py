import random
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicint import (
    AngularResidue,
    AqElem,
    BudgetExceeded,
    ConstructibleExpr,
    DivergentSum,
    Domain,
    DomainError,
    GammaCell,
    InfiniteMeasure,
    KCell,
    NotFiberReducible,
    OrdExpr,
    Polynomial,
    PreparedLinear,
    Prime,
    Term,
    UndefinedAtPoint,
    UNIT_BALL,
    brute_force_integrate,
    eval_constructible,
    identity_lin,
    integrate,
)
from padicint.aqring import LaurentPoly
from padicint.integrate import LinExpr, _Compiled, _range_sum, _sum_terms
from padicint.parsing import parse_integrand
from padicint.selfcheck import (
    _corpus,
    check_integration_additivity,
    check_integration_fubini,
    check_integration_linearity,
    check_integration_oracle,
    random_kcell,
    random_region,
)

P2, P3 = Prime(2), Prime(3)
K, G = "K", "Gamma"


def ordvar(name="x1"):
    return OrdExpr(Polynomial.variable(0, 1), (name,))


def unit_ball_domain(prime, var="x1"):
    return Domain([(var, K, UNIT_BALL)], prime)


# 1, |x|, ord x, ord(x) |x| and |x|^2 in x1: the oracle corpus of selfcheck
ONE, ABS_X, ORD_X, ORD_TIMES_NORM, NORM_SQ = (f for _, f, _ in _corpus())


def test_eval_examples():
    assert eval_constructible(ORD_TIMES_NORM, {"x1": Fraction(4)}, P2) == Fraction(1, 2)
    assert eval_constructible(ONE, {}, P3) == 1
    f = ConstructibleExpr(
        [Term(AqElem.one(), factors=[(0, {OrdExpr(Polynomial(2, {(1, 1): 1}), ("x1", "x2")): 1})])]
    )
    assert eval_constructible(f, {"x1": Fraction(2), "x2": Fraction(6)}, P2) == 2


def test_eval_undefined_at_zero():
    with pytest.raises(UndefinedAtPoint):
        eval_constructible(ORD_X, {"x1": Fraction(0)}, P2)
    # a zero coefficient shields the term
    shielded = ORD_X.scale(AqElem.zero()) + ONE
    assert eval_constructible(shielded, {"x1": Fraction(0)}, P2) == 1


def test_integrate_norm():
    r2 = integrate(ABS_X, unit_ball_domain(P2))
    assert r2.eval_at(P2) == Fraction(2, 3)
    r3 = integrate(ABS_X, unit_ball_domain(P3))
    assert r3.eval_at(P3) == Fraction(3, 4)
    # p/(p+1) in closed form
    for p in (2, 3, 5):
        r = integrate(ABS_X, unit_ball_domain(Prime(p)))
        assert r.eval_at(p) == Fraction(p, p + 1)


def test_integrate_ord():
    assert integrate(ORD_X, unit_ball_domain(P2)).eval_at(P2) == 1
    assert integrate(ORD_X, unit_ball_domain(P3)).eval_at(P3) == Fraction(1, 2)


def test_integrate_gamma_cell_example():
    f = ConstructibleExpr([Term(AqElem.one(), (0, {identity_lin("g1"): -1}))])
    dom = Domain([("g1", G, [GammaCell(1, None, 1, 0)])], P2)
    assert integrate(f, dom) == AqElem.q_power(-2) * AqElem.geom(1)


def test_integrate_over_explicit_cells_matches_measure():
    from padicint import kcell_measure

    rng = random.Random(61)
    for prime in (P2, P3):
        for _ in range(30):
            cell = random_kcell(rng, prime)
            dom = Domain([("x1", K, [cell])], prime)
            assert integrate(ONE, dom) == kcell_measure(cell)


def test_oracle_examples():
    r = brute_force_integrate(ABS_X, unit_ball_domain(P2), 6, growth=(1, -1, 0))
    assert abs(r.value - Fraction(2, 3)) <= Fraction(1, 64)
    assert abs(r.value - Fraction(2, 3)) <= r.tail_bound
    r = brute_force_integrate(ONE, unit_ball_domain(P3), 4)
    assert r.value == 1 and r.tail_bound == 0 and r.skipped == 0
    r = brute_force_integrate(ORD_X, unit_ball_domain(P2), 8, growth=(1, 0, 1))
    assert abs(r.value - 1) <= r.tail_bound


def test_oracle_agreement_corpus():
    _, ok, detail = check_integration_oracle()
    assert ok, detail


def test_oracle_skipped_measure_reported():
    r = brute_force_integrate(ORD_X, unit_ball_domain(P2), 5, growth=(1, 0, 1))
    assert r.skipped == 1
    assert r.skipped_measure == Fraction(1, 32)


def test_oracle_agreement_on_explicit_cells():
    # cell regions with nonzero rational centers force the oracle through
    # its boundary-class accounting; the bound must still hold
    rng = random.Random(71)
    for prime in (P2, P3):
        for _ in range(18):
            region = random_region(rng, prime)
            dom = Domain([("x1", K, region)], prime)
            # the constant works on any center; ord(x1) needs center 0
            cases = [(ONE, (1, 0, 0))]
            if region is UNIT_BALL or all(cell.center == 0 for cell in region):
                cases.append((ABS_X, (1, -1, 0)))
            for f, growth in cases:
                symbolic = integrate(f, dom).eval_at(prime)
                for depth in (5, 7):
                    r = brute_force_integrate(f, dom, depth, growth=growth)
                    assert abs(symbolic - r.value) <= r.tail_bound, (region, depth)
        # centered cells with the norm integrand
        for _ in range(6):
            c = random_kcell(rng, prime, 7)
            cell = KCell(Fraction(0), c.lower, c.upper, c.mod, c.res, c.ac_depth, c.ac_value, c.prime)
            dom = Domain([("x1", K, [cell])], prime)
            symbolic = integrate(ABS_X, dom).eval_at(prime)
            for depth in (5, 7):
                r = brute_force_integrate(ABS_X, dom, depth, growth=(1, -1, 0))
                assert abs(symbolic - r.value) <= r.tail_bound, (cell, depth)


def test_oracle_charges_only_classes_that_straddle_the_cell():
    # {ord x >= 0, ac_1 x = 1} at p = 3: 1 + 3Z_3 and 3 + 9Z_3 lie inside,
    # 2 + 3Z_3 and 6 + 9Z_3 outside; only 9Z_3, which holds the center,
    # straddles the boundary at depth 2
    cell = KCell(Fraction(0), -1, None, 1, 0, 1, AngularResidue(1, 1), P3)
    r = brute_force_integrate(ONE, Domain([("x1", K, [cell])], P3), 2)
    assert r.value == Fraction(4, 9)
    assert r.tail_bound == Fraction(1, 9)
    assert r.boundary == 1


def test_oracle_refine_shrinks_tail():
    base = brute_force_integrate(ABS_X, unit_ball_domain(P2), 4, growth=(1, -1, 0))
    refined = brute_force_integrate(ABS_X, unit_ball_domain(P2), 7, growth=(1, -1, 0))
    assert refined.tail_bound < base.tail_bound
    assert abs(refined.value - Fraction(2, 3)) <= refined.tail_bound
    # exact bounds, so the tail taken at the deeper level is pinned too
    assert base.tail_bound == Fraction(1, 192)
    assert refined.tail_bound == Fraction(1, 12288)
    for depth, bound in ((4, Fraction(13, 576)), (6, Fraction(19, 9216))):
        r = brute_force_integrate(ORD_TIMES_NORM, unit_ball_domain(P2), depth, growth=(1, -1, 1))
        assert r.tail_bound == bound


def test_oracle_budget_bounds_the_classes_settled():
    # 2^40 classes mod 2^40, but the walk settles only 41 of them
    deep = brute_force_integrate(ABS_X, unit_ball_domain(P2), 40, growth=(1, -1, 0), budget=41)
    assert deep.classes == 2**40
    assert abs(deep.value - Fraction(2, 3)) <= deep.tail_bound < Fraction(1, 10**23)
    # q^(-ord x1 - ord x2) on Z_3^2 at depth 7 settles 15^2 = 225 boxes: each
    # coordinate is split only while its own argument is saturated, which
    # cuts Z_3 into 3^7 Z_3 and the 2 * 7 classes a + 3^k Z_3 with 0 < a < 3^k
    # and ord a = k - 1, and the walk settles the products of those pieces
    f = ConstructibleExpr(
        [Term(AqElem.one(), (0, {ordvar("x1"): -1, ordvar("x2"): -1}))]
    )
    domain = Domain([("x1", K, UNIT_BALL), ("x2", K, UNIT_BALL)], P3)
    r = brute_force_integrate(f, domain, 7, growth=(1, -1, 0), budget=225)
    assert abs(r.value - Fraction(9, 16)) <= r.tail_bound
    with pytest.raises(BudgetExceeded, match="depth 7 .* 224 boxes"):
        brute_force_integrate(f, domain, 7, growth=(1, -1, 0), budget=224)


@pytest.mark.parametrize(
    "text, prime, growth, exact, settled",
    [
        # a walk that decides a box only for ord g(a) below the least k_i
        # settles 39,365 and 5,461 boxes here
        ("q^(-ord(x1^2))*ord(x1^2)", P3, (1, -1, 1), Fraction(9, 169), 37),
        ("q^(-ord(x1^3))", P2, (1, -1, 0), Fraction(8, 15), 19),
    ],
)
def test_oracle_settles_a_power_of_x_in_p_minus_1_boxes_per_level(text, prime, growth, exact, settled):
    # on a + p^k Z_p with ord a = k - 1 the Taylor test shows ord(x^e) = e (k - 1),
    # so only the box at 0 splits, once per level: 1 + (p - 1) 18 boxes
    f = parse_integrand(text)
    r = brute_force_integrate(f, unit_ball_domain(prime), 18, growth=growth, budget=settled)
    assert abs(r.value - exact) <= r.tail_bound
    with pytest.raises(BudgetExceeded, match="depth 18 .* budget of %d " % (settled - 1)):
        brute_force_integrate(f, unit_ball_domain(prime), 18, growth=growth, budget=settled - 1)


def test_a_deep_oracle_call_strips_p_in_few_divisions():
    # the decided boxes take valuations of numbers up to 3^3000: dividing
    # one p at a time takes about 8 s for the whole walk
    start = time.perf_counter()
    r = brute_force_integrate(ABS_X, unit_ball_domain(P3), 3000, growth=(1, -1, 0))
    assert time.perf_counter() - start < 3
    assert abs(r.value - Fraction(3, 4)) <= r.tail_bound


def test_the_oracle_budget_bounds_its_memory():
    # a table of every p^k up to depth takes 1.6 s and 43 MB before the first box
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(BudgetExceeded, match="budget of 10 "):
            brute_force_integrate(ABS_X, unit_ball_domain(P3), 20000, budget=10)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.5 and peak < 10**6


def test_oracle_on_general_polynomial_argument():
    # the symbolic engine rejects ord(1 + x^2); the oracle still integrates it
    g = Polynomial(1, {(0,): 1, (2,): 1})
    f = ConstructibleExpr([Term(AqElem.one(), (0, {OrdExpr(g, ("x1",)): -1}))])
    with pytest.raises(NotFiberReducible):
        integrate(f, unit_ball_domain(P3))
    r = brute_force_integrate(f, unit_ball_domain(P3), 5, growth=(1, 0, 0))
    # |1 + x^2| = 1 on Z_3 because -1 is not a square mod 3
    assert r.value == 1 and r.tail_bound == 0


def test_linearity():
    _, ok, detail = check_integration_linearity()
    assert ok, detail


def test_domain_additivity():
    _, ok, detail = check_integration_additivity()
    assert ok, detail


def test_fubini_product_domains():
    _, ok, detail = check_integration_fubini()
    assert ok, detail


def _weighted_ord_product(n):
    """prod over i <= n of q^(-ord xi) * ord xi, on the unit ball."""
    return ConstructibleExpr(
        [
            Term(
                AqElem.one(),
                (0, {ordvar(f"x{i}"): -1 for i in range(1, n + 1)}),
                [(0, {ordvar(f"x{i}"): 1}) for i in range(1, n + 1)],
            )
        ]
    )


def test_unit_ball_integrals_are_uniform_in_q():
    # one variable gives (1 - q^-1) * sum_{g >= 0} g q^-2g = (1 - q^-1) q^-2 / (1 - q^-2)^2
    one_var = (1 - AqElem.q_power(-1)) * AqElem.q_power(-2) * AqElem.geom(2, 2)
    for n in range(1, 5):
        f = _weighted_ord_product(n)
        names = [f"x{i}" for i in range(1, n + 1)]
        for p in (2, 3, 5, 7, 11, 13):
            dom = Domain([(name, K, UNIT_BALL) for name in names], Prime(p))
            assert integrate(f, dom) == one_var**n
    for prime in (P2, P3):
        f = _weighted_ord_product(1)
        r = brute_force_integrate(f, unit_ball_domain(prime), 8, growth=(1, -1, 1))
        assert abs(one_var.eval_at(prime) - r.value) <= r.tail_bound


def test_multivariate_ord_factorization():
    # ord(x * y) splits into ord(x) + ord(y) across nested reductions
    f = ConstructibleExpr(
        [
            Term(
                AqElem.one(),
                (0, {OrdExpr(Polynomial(2, {(1, 1): 1}), ("x1", "x2")): -1}),
            )
        ]
    )
    dom = Domain([("x1", K, UNIT_BALL), ("x2", K, UNIT_BALL)], P2)
    r = integrate(f, dom)
    assert r.eval_at(P2) == Fraction(4, 9)  # (p/(p+1))^2 at p = 2


def test_dependent_bounds_triangle():
    # inner variable bounded below by the outer one
    f = ConstructibleExpr([Term(AqElem.one(), (0, {identity_lin("g2"): -1}))])
    tri = Domain(
        [
            ("g1", G, [GammaCell(0, None, 1, 0)]),
            ("g2", G, [GammaCell(identity_lin("g1"), None, 1, 0)]),
        ],
        P2,
    )
    r = integrate(f, tri)
    assert r == AqElem.q_power(-2) * AqElem.geom(1, 2)
    assert r.eval_at(P2) == 1
    brute = sum(
        Fraction(1, 2**b) for a in range(1, 30) for b in range(a + 1, 70)
    )
    assert abs(r.eval_at(P2) - brute) < Fraction(1, 2**25)


def test_dependent_bounds_weighted_and_counting():
    # polynomial weight with a symbolic bound
    f = ConstructibleExpr(
        [
            Term(
                AqElem.one(),
                (0, {identity_lin("g2"): -1}),
                [(0, {identity_lin("g2"): 1})],
            )
        ]
    )
    tri = Domain(
        [
            ("g1", G, [GammaCell(0, None, 1, 0)]),
            ("g2", G, [GammaCell(identity_lin("g1"), None, 1, 0)]),
        ],
        P2,
    )
    value = integrate(f, tri).eval_at(P2)
    brute = sum(Fraction(b, 2**b) for a in range(1, 40) for b in range(a + 1, 100))
    assert abs(value - brute) < Fraction(1, 2**30)
    # counting measure of a bounded triangle (weight 1)
    tri2 = Domain(
        [
            ("g1", G, [GammaCell(0, 8, 1, 0)]),
            ("g2", G, [GammaCell(0, identity_lin("g1"), 1, 0)]),
        ],
        P2,
    )
    assert integrate(ONE, tri2).as_rational() == sum(max(0, a - 1) for a in range(1, 8))


def test_dependent_bound_weights_expand_with_rational_coefficients():
    # the inner sum of g2^2 over 0 < g2 < g1 is a cubic in g1 whose
    # coefficients (1/3, -1/2, 1/6) are not integers
    tri = Domain(
        [
            ("g1", G, [GammaCell(0, 8, 1, 0)]),
            ("g2", G, [GammaCell(0, identity_lin("g1"), 1, 0)]),
        ],
        P2,
    )
    f = parse_integrand("lin(1,0,1,0;g2)^2")
    assert integrate(f, tri).as_rational() == sum(b * b for a in range(1, 8) for b in range(1, a))


def _ord_moments(p):
    """E[v] and E[v^2] for v = ord x on Z_p: v = j with mass (1 - r) r^j, r = 1/p."""
    r = Fraction(1, p)
    return r / (1 - r), r * (1 + r) / (1 - r) ** 2


def _merged_leaf_cases():
    lin = "lin(1,0,1,0;{})".format
    g1_from_0 = ("g1", G, [GammaCell(-1, None, 1, 0)])
    m3, m2 = _ord_moments(3), _ord_moments(2)
    r5 = Fraction(1, 5)
    return [
        # 2v q^(-2v) on Z_3: 2 (1 - r) sum v r^(3v)
        ("(ord(x1) + ord(x1))*q^(-ord(x1) - ord(x1))", unit_ball_domain(P3),
         "(2*q^-3 - 2*q^-4) / (1-q^-3)^2", Fraction(9, 169),
         2 * Fraction(2, 3) * Fraction(1, 27) / (1 - Fraction(1, 27)) ** 2),
        # the ord(x1) leaves cancel: E[ord(x2)^2]
        ("(ord(x1) - ord(x1) + ord(x2))^2",
         Domain([("x1", K, UNIT_BALL), ("x2", K, UNIT_BALL)], P2),
         "(q^-1 + q^-2) / (1-q^-1)^2", Fraction(3), m2[1]),
        # (u + w)(2u + w) for u = ord x1, w = ord x2 independent
        ("ord(x1*x2)*(ord(x1) + ord(x1*x2))",
         Domain([("x1", K, UNIT_BALL), ("x2", K, UNIT_BALL)], P3),
         "(3*q^-1 + 6*q^-2) / (1-q^-1)^2", Fraction(15, 4), 3 * m3[1] + 3 * m3[0] ** 2),
        # (2a + b) r^(a + b) over a, b >= 0: 3 * r/(1 - r)^2 * 1/(1 - r)
        (f"({lin('g1')} + {lin('g1')} + {lin('g2')})*q^(-{lin('g2')}-{lin('g1')})",
         Domain([g1_from_0, ("g2", G, [GammaCell(-1, None, 1, 0)])], Prime(5)),
         "3*q^-1 / (1-q^-1)^3", Fraction(75, 64), 3 * r5 / (1 - r5) ** 3),
        # a symbolic lower bound, and g1 < g2 < 9 is nonempty for every g1 <= 5
        (f"{lin('g2')}*q^(-{lin('g1')})",
         Domain(
             [("g1", G, [GammaCell(-1, 6, 1, 0)]),
              ("g2", G, [GammaCell(identity_lin("g1"), 9, 1, 0)])],
             P2,
         ),
         "36 + 35*q^-1 + 33*q^-2 + 30*q^-3 + 26*q^-4 + 21*q^-5", Fraction(2169, 32),
         sum(Fraction(b, 2**a) for a in range(6) for b in range(a + 1, 9))),
    ]


@pytest.mark.parametrize("text, domain, render, value, independent", _merged_leaf_cases())
def test_leaves_that_one_form_merges_integrate_as_pinned(text, domain, render, value, independent):
    # each integrand repeats or cancels a leaf, which the affine form of
    # an exponent or factor merges into one coefficient
    result = integrate(parse_integrand(text), domain)
    assert result.render() == render
    assert result.eval_at(domain.prime) == value == independent


def test_an_integrand_leaf_is_a_dependent_bound():
    # the lin leaf of a parsed integrand bounds g2 from below, as the
    # object {"var": "g1", ...} of a domain file does
    (leaf,) = parse_integrand("lin(1,0,1,0;g1)").terms[0].factors[0][1]
    built = Domain([("g1", G, [GammaCell(0, None)]), ("g2", G, [GammaCell(leaf, None)])], P2)
    bound = {"var": "g1", "a": 1, "k": 0, "n": 1, "delta": 0}
    data = {"p": 2, "vars": [
        {"name": "g1", "sort": "Gamma", "region": [{"lower": 0, "upper": None, "mod": 1, "res": 0}]},
        {"name": "g2", "sort": "Gamma", "region": [{"lower": bound, "upper": None, "mod": 1, "res": 0}]},
    ]}
    f = parse_integrand("q^(-lin(1,0,1,0;g2))")
    result = integrate(f, built)
    assert result == integrate(f, Domain.from_json(data)) == AqElem.q_power(-2) * AqElem.geom(1, 2)
    assert result.render() == "q^-2 / (1-q^-1)^2"
    assert built.to_json() == data
    assert Domain.from_json(data).variables[1].region == [GammaCell(leaf, None)]


def test_symbolic_bounds_need_modulus_one():
    tri = Domain(
        [
            ("g1", G, [GammaCell(0, None, 1, 0)]),
            ("g2", G, [GammaCell(identity_lin("g1"), None, 2, 1)]),
        ],
        P2,
    )
    f = ConstructibleExpr([Term(AqElem.one(), (0, {identity_lin("g2"): -1}))])
    with pytest.raises(NotFiberReducible):
        integrate(f, tri)


def test_fiber_reduction_rejects_shifted_argument():
    # ord(x - 1) on a cell centered at 0 is not reducible
    g = Polynomial(1, {(1,): 1, (0,): -1})
    f = ConstructibleExpr([Term(AqElem.one(), (0, {OrdExpr(g, ("x1",)): -1}))])
    with pytest.raises(NotFiberReducible):
        integrate(f, unit_ball_domain(P2))
    # but on a cell centered at 1 it reduces
    cells = [
        KCell(Fraction(1), -1, None, 1, 0, 1, AngularResidue(1, xi), P3) for xi in (1, 2)
    ]
    dom = Domain([("x1", K, cells)], P3)
    assert integrate(f, dom).eval_at(P3) == Fraction(3, 4)


def test_infinite_measure_and_divergence():
    big = KCell(Fraction(0), None, 0, 1, 0, 1, AngularResidue(1, 1), P2)
    dom = Domain([("x1", K, [big])], P2)
    with pytest.raises(InfiniteMeasure):
        integrate(ONE, dom)
    # |x|^2 grows on an unbounded-below cell: no finite integral
    f = ConstructibleExpr([Term(AqElem.one(), (0, {ordvar(): -2}))])
    with pytest.raises(InfiniteMeasure):
        integrate(f, dom)
    # but |x|^-2 = q^(2 ord x) integrates over the complement of the unit
    # ball: shells of measure ~ q^-gamma against weight q^(2 gamma)
    f2 = ConstructibleExpr([Term(AqElem.one(), (0, {ordvar(): 2}))])
    r = integrate(f2, dom)
    # at q = 2 the shell at gamma has measure 2^(-gamma-1), gamma <= -1,
    # so the exact value is sum of 2^(gamma-1) = 1/2
    assert r.eval_at(P2) == Fraction(1, 2)
    shells = sum(
        Fraction(2) ** (2 * g) * Fraction(2) ** (-g - 1) for g in range(-60, 0)
    )
    assert abs(r.eval_at(P2) - shells) < Fraction(1, 2**55)
    # counting-measure divergence on the value-group side
    fg = ConstructibleExpr([Term(AqElem.one(), (0, {identity_lin("g1"): 1}))])
    domg = Domain([("g1", G, [GammaCell(0, None, 1, 0)])], P2)
    with pytest.raises(DivergentSum):
        integrate(fg, domg)


def test_domain_validation():
    with pytest.raises(ValueError):
        Domain([("x1", K, UNIT_BALL), ("x1", K, UNIT_BALL)], P2)
    with pytest.raises(ValueError):
        Domain([("g1", G, [GammaCell(0, 10, 1, 0), GammaCell(3, 6, 1, 0)])], P2)
    with pytest.raises(ValueError):
        Domain(
            [("g2", G, [GammaCell(identity_lin("g9"), None, 1, 0)])],
            P2,
        )
    with pytest.raises(DomainError):
        integrate(ORD_X, Domain([("x2", K, UNIT_BALL)], P2))


def test_domain_checks_its_concrete_cells_as_one_union():
    overlap = [GammaCell(0, 10, 1, 0), GammaCell(3, 6, 1, 0)]
    with pytest.raises(ValueError, match=r"cells GammaCell\(lower=0, .* are not disjoint"):
        Domain([("g1", G, overlap)], P2)
    # a cell with a symbolic bound is left out of the check
    ref = identity_lin("g1")
    dom = Domain([("g1", G, [GammaCell(0, 5)]), ("g2", G, [GammaCell(0, 10), GammaCell(ref, 6)])], P2)
    assert [c.lower for c in dom.variables[1].region] == [0, ref]


def test_symbolic_engine_and_oracle_refuse_a_sort_clash_alike():
    f = ConstructibleExpr([Term(AqElem.one(), factors=[(0, {identity_lin("x1"): 1})])])
    domain = Domain([("x1", K, UNIT_BALL)], P2)
    clash = "x1 has sort K in the domain, but the integrand uses it as a value-group variable"
    with pytest.raises(DomainError, match=clash):
        integrate(f, domain)
    with pytest.raises(DomainError, match=clash):
        brute_force_integrate(f, domain, 3)


def test_oracle_domain_validation():
    gdom = Domain([("g1", G, [GammaCell(0, 5, 1, 0)])], P2)
    with pytest.raises(DomainError):
        brute_force_integrate(ONE, gdom, 3)
    outside = KCell(Fraction(1, 2), -1, None, 1, 0, 1, AngularResidue(1, 1), P2)
    with pytest.raises(DomainError):
        brute_force_integrate(ONE, Domain([("x1", K, [outside])], P2), 3)


def test_oracle_growth_exponents_must_be_integers():
    dom = unit_ball_domain(P3)
    for growth in [(1, 0, Fraction(1, 2)), (1, Fraction(-1, 2), 0)]:
        with pytest.raises(ValueError, match="integers"):
            brute_force_integrate(ABS_X, dom, 3, growth=growth)
    as_fractions = brute_force_integrate(ABS_X, dom, 3, growth=(1, Fraction(-1), Fraction(0)))
    assert as_fractions == brute_force_integrate(ABS_X, dom, 3, growth=(1, -1, 0))


def test_domain_json_round_trip():
    cells = [KCell(Fraction(1), -1, 4, 2, 1, 1, AngularResidue(1, 1), P2)]
    dom = Domain(
        [
            ("x1", K, cells),
            ("g1", G, [GammaCell(0, None, 1, 0)]),
            ("g2", G, [GammaCell(LinExpr(PreparedLinear(2, 0, 1, 3), "g1"), None, 1, 0)]),
        ],
        P2,
    )
    again = Domain.from_json(dom.to_json())
    assert again.to_json() == dom.to_json()


# -- the final sum ---------------------------------------------------------------

_sum_coeffs = st.builds(
    AqElem,
    st.dictionaries(
        st.integers(-8, 8),
        st.one_of(st.integers(-6, 6), st.fractions(-6, 6, max_denominator=3)).filter(bool),
        min_size=1,
        max_size=4,
    ).map(LaurentPoly),
    st.dictionaries(st.integers(1, 6), st.integers(1, 2), max_size=2),
)
_sum_parts = st.lists(st.tuples(_sum_coeffs, st.integers(-8, 8), st.integers(-3, 3)), max_size=8)


@settings(max_examples=200, deadline=None)
@given(_sum_parts, st.integers(0, 8))
def test_grouped_sum_is_the_left_fold(parts, cancelled):
    # the negatives of the first parts cancel them in their groups
    every = cancelled >= len(parts)
    parts = parts + [(-c, e, z) for c, e, z in parts[:cancelled]]
    fold = AqElem.zero()
    for c, e, z in parts:
        fold = fold + c * AqElem.q_power(e, z)
    got = _sum_terms(parts)
    assert got == fold
    for p in (2, 3, 5):
        assert got.eval_at(p) == fold.eval_at(p)
    for i in got.den:
        assert got.num.divexact(LaurentPoly({i: 1, 0: -1})) is None
    if every:
        assert got.is_zero() and got.den == {}


def test_grouped_sum_render_is_pinned():
    # g2 ranges over a finite cell, so each of its sums is a Laurent
    # polynomial; the g1 sums then land over (1-q^-2) and (1-q^-1)^2, which
    # the grouped sum meets over (1-q^-1)(1-q^-2).  folded is the same value
    # in another reduced form, over (1-q^-1)(1-q^-4)
    f = parse_integrand(
        "q^(-2*lin(1,0,1,0;g1) - lin(1,0,1,0;g2) - 1)*lin(1,0,2,-1;g2)"
        " + 3*q^(-lin(1,0,1,0;g1) - 2*lin(1,0,1,0;g2) + 1)*lin(-2,0,1,3;g1)*lin(3,0,1,-1;g2)"
    )
    domain = Domain(
        [("g1", G, [GammaCell(3, None, 1, 0)]), ("g2", G, [GammaCell(0, 5, 2, 0)])], P2
    )
    result = integrate(f, domain)
    assert result.render() == (
        "(-75*q^-7 - 30*q^-8 + 45*q^-9 - 165*q^-11 - 66*q^-12 + 100*q^-13 - q^-14)"
        " / (1-q^-1)(1-q^-2)"
    )
    assert result.eval_at(2) == Fraction(-11465, 6144)
    folded = AqElem(
        LaurentPoly({-7: -75, -8: -30, -9: -30, -10: -30, -11: -120, -12: -66, -13: -65,
                     -14: -67, -15: 100, -16: -1}),
        {1: 1, 4: 1},
    )
    assert result == folded


def _endpoint(kind, slope, value):
    """An int, None or the form of a LinExpr slope*g1 + value endpoint."""
    if kind == "int":
        return value
    if kind == "none":
        return None
    return 0, {LinExpr(PreparedLinear(slope, 0, 1, value), "g1"): 1}


def _endpoint_value(end, g1):
    if end is None or isinstance(end, int):
        return end
    c0, lin = end
    return c0 + sum(c * leaf.form.eval(g1) for leaf, c in lin.items())


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(-5, 5), min_size=1, max_size=4),
    st.integers(-2, 2),
    st.sampled_from(["int", "none", "symbolic"]),
    st.sampled_from(["int", "none", "symbolic"]),
    st.sampled_from([-1, 1, 2]),
    st.sampled_from([-1, 1, 2]),
    st.integers(-6, 6),
    st.integers(0, 8),
)
def test_range_sum_matches_enumeration(poly, e1, lo_kind, hi_kind, lo_slope, hi_slope, a, width):
    lower = _endpoint(lo_kind, lo_slope, a)
    upper = _endpoint(hi_kind, hi_slope, a + width)
    converges = (
        (lower is not None or e1 >= 1)
        and (upper is not None or e1 <= -1)
        and (lower is not None or upper is not None)
    )
    if not any(poly):
        assert _range_sum(poly, e1, lower, upper) == []
        return
    if not converges:
        with pytest.raises(DivergentSum):
            _range_sum(poly, e1, lower, upper)
        return
    closed = _Compiled(_range_sum(poly, e1, lower, upper))
    for g1 in range(4):
        lo, hi = _endpoint_value(lower, g1), _endpoint_value(upper, g1)
        if lo is not None and hi is not None and lo > hi:
            continue
        # 400 terms from the finite end leave a tail far below 2^-300
        lo = hi - 400 if lo is None else lo
        hi = lo + 400 if hi is None else hi
        for prime in (P2, P3):
            direct = sum(
                sum(c * t**i for i, c in enumerate(poly)) * Fraction(prime.p) ** (e1 * t)
                for t in range(lo, hi + 1)
            )
            got = closed.at({"g1": g1}, prime)
            if lower is None or upper is None:
                assert abs(got - direct) < Fraction(1, 2**300)
            else:
                assert got == direct


def test_a_concrete_range_is_one_term_up_to_the_endpoint_size():
    # G's two endpoint elements have 4*len + 2 monomials between them: a
    # range of at most that many members is one Laurent polynomial, a
    # longer one stays the two endpoint elements
    for poly, size in (([1], 6), ([2, -1], 10)):
        (short,) = _range_sum(poly, -1, 0, size - 1)
        assert not short[0].den
        assert [aq.den for aq, _, _ in _range_sum(poly, -1, 0, size)] == [{1: len(poly)}] * 2


def test_two_long_concrete_ranges_multiply_no_long_polynomials(monkeypatch):
    # expanded, the g2 sum would be a 1999-monomial coefficient multiplied
    # in full by the 1999-monomial g1 sum: about 4 million products
    work = [0]
    mul = LaurentPoly.__mul__

    def counted(self, other):
        work[0] += len(self.coeffs) * len(other.coeffs)
        return mul(self, other)

    monkeypatch.setattr(LaurentPoly, "__mul__", counted)
    L = 2000
    f = parse_integrand("q^(-lin(1,0,1,0;g1) - lin(1,0,1,0;g2))")
    result = integrate(f, Domain([("g1", G, [GammaCell(0, L)]), ("g2", G, [GammaCell(0, L)])], P2))
    assert result.eval_at(2) == sum(Fraction(1, 2**g) for g in range(1, L)) ** 2
    assert not result.den and len(result.num.coeffs) == 2 * L - 3
    assert work[0] < 100


def test_zero_weight_over_an_infinite_range_gives_no_terms():
    # a zero weight returns before any divergence check
    for e1 in (-1, 0, 1):
        assert _range_sum([0, 0], e1, None, None) == []
        assert _range_sum([0], e1, None, 4) == []
        assert _range_sum([0], e1, (0, {identity_lin("g1"): 1}), None) == []
