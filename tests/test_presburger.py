import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicint import (
    AngularResidue,
    AqElem,
    DivergentSum,
    DomainError,
    EmptySet,
    GammaCell,
    GammaCellUnion,
    INFINITY,
    KCell,
    LinExpr,
    PreparedLinear,
    Prime,
    cell_cardinality,
    cells_disjoint,
    geom_sum,
    intersect_cells,
    prepared_eval,
    weighted_sum,
    wellorder_less,
    wellorder_min,
    wellorder_min_product,
)
from padicint.polys import finite_differences, poly_shift
from padicint.aqring import LaurentPoly
from padicint.presburger import Antidifference, weighted_tail, wellorder_key
from padicint.selfcheck import (
    check_presburger_additivity,
    check_presburger_sums,
    check_wellorder,
    random_gamma_cell,
)


def brute_members(cell: GammaCell, lo=-500, hi=500):
    return [g for g in range(lo, hi) if cell.contains(g)]


def test_cardinality_examples():
    assert cell_cardinality(GammaCell(0, 5, 2, 0)) == 2  # {2, 4}
    assert cell_cardinality(GammaCell(2, None, 1, 0)) is INFINITY
    assert cell_cardinality(GammaCell(0, 1, 1, 0)) == 0


def test_cardinality_matches_enumeration():
    rng = random.Random(5)
    for _ in range(300):
        cell = random_gamma_cell(rng, 30, 0.0)
        assert cell_cardinality(cell) == len(brute_members(cell))


def test_geom_sum_examples():
    # unbounded: tau >= 2 after reindexing
    s = geom_sum(GammaCell(1, None, 1, 0), 1)
    assert s == AqElem.q_power(-2) * AqElem.geom(1)
    # bounded: both endpoint terms appear
    s = geom_sum(GammaCell(0, 5, 2, 0), 2)
    assert s == AqElem.q_power(-2) + AqElem.q_power(-4)
    assert geom_sum(GammaCell(0, 1, 1, 0), 1).is_zero()


@pytest.fixture(scope="module")
def presburger_sums():
    # one run serves the three tests below
    return check_presburger_sums(250)


def test_geom_sum_agrees_with_enumeration(presburger_sums):
    _, ok, detail = presburger_sums
    assert ok, detail


def test_geom_sum_tail_bound(presburger_sums):
    _, ok, detail = presburger_sums
    assert ok, detail


def test_geom_sum_divergent():
    with pytest.raises(DivergentSum):
        geom_sum(GammaCell(None, 5, 1, 0), 1)


def test_weighted_sum_examples():
    s = weighted_sum(GammaCell(-1, None, 1, 0), [0, 1], 1)
    assert s == AqElem.q_power(-1) * AqElem.geom(1, 2)
    s = weighted_sum(GammaCell(0, 5, 2, 0), [1], 2)
    assert s == AqElem.q_power(-2) + AqElem.q_power(-4)
    s = weighted_sum(GammaCell(-1, None, 1, 0), [1], 1)
    assert s == AqElem.geom(1)


def test_weighted_sum_agrees_with_enumeration(presburger_sums):
    _, ok, detail = presburger_sums
    assert ok, detail


def test_weighted_sum_divergence_rules():
    with pytest.raises(DivergentSum):
        weighted_sum(GammaCell(0, None, 1, 0), [1], 0)
    with pytest.raises(DivergentSum):
        weighted_sum(GammaCell(None, None, 1, 0), [0, 1], 2)
    # zero weight sums to zero even on infinite cells
    assert weighted_sum(GammaCell(0, None, 1, 0), [0], 0).is_zero()


def _binomial_basis_tail(poly, a, N):
    """The tail in the binomial basis: poly(a + s) = sum_j d_j C(s, j), and
    each basis sum is q^(-N(a+j)) / (1 - q^-N)^(j+1), added one by one."""
    total = AqElem.zero()
    for j, c in enumerate(finite_differences(poly_shift(poly, a))):
        if c != 0:
            total = total + AqElem.q_power(-N * (a + j), c) * AqElem.geom(N, j + 1)
    return total


tail_coeffs = st.one_of(st.integers(-9, 9), st.fractions(-9, 9, max_denominator=4))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(tail_coeffs, min_size=1, max_size=7),
    st.integers(0, 3),
    st.integers(-10, 40),
    st.integers(1, 5),
)
def test_weighted_tail_is_the_binomial_basis_canonical_form(poly, zeros, a, N):
    poly = poly + [Fraction(0)] * zeros  # trailing zeros leave the degree alone
    got, want = weighted_tail(poly, a, N), _binomial_basis_tail(poly, a, N)
    assert got.num.coeffs == want.num.coeffs
    assert {e: type(c) for e, c in got.num.coeffs.items()} == {
        e: type(c) for e, c in want.num.coeffs.items()
    }
    assert got.den == want.den
    assert got.render() == want.render()


def test_weighted_tail_edge_cases():
    for zero in ([], [0], [Fraction(0), 0, Fraction(0)]):
        assert weighted_tail(zero, 3, 2).is_zero()
    # sum_{tau >= 0} tau^2 x^tau = x (1 + x) / (1 - x)^3 with x = q^-1
    assert weighted_tail([0, 0, 1, 0, 0], 0, 1).render() == "(q^-1 + q^-2) / (1-q^-1)^3"
    assert weighted_tail([Fraction(6, 2)], -2, 3).render() == "3*q^6 / (1-q^-3)"
    for N in (0, -1):
        with pytest.raises(ValueError):
            weighted_tail([1, 2], 0, N)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(tail_coeffs, min_size=1, max_size=5),
    st.integers(-3, 3),
    st.integers(-10, 10),
)
def test_antidifference_steps_by_the_summand(poly, e1, A):
    G = Antidifference(poly, e1)
    here, there = G.at(A), G.at(A + 1)
    summand = sum(Fraction(c) * A**i for i, c in enumerate(poly))
    for p in (2, 3, 5):
        assert there.eval_at(p) - here.eval_at(p) == summand * Fraction(p) ** (e1 * A)
    # the symbolic form, one numerator per power of A, is the same element
    symbolic = AqElem.zero()
    for s, num in enumerate(G.nums()):
        symbolic = symbolic + AqElem(LaurentPoly(num), G.den) * AqElem.q_power(e1 * A, A**s)
    assert symbolic == here
    assert G.at(A, -1) == -here
    if e1 != 0 and all(isinstance(c, int) for c in poly):
        assert all(type(c) is int for num in G.nums() for c in num.values())


def test_antidifference_vanishes_where_the_weight_decays():
    # sum_{tau >= a} tau q^-tau is -G(a); sum_{tau <= b} q^(2 tau) is G(b+1)
    assert Antidifference([0, 1], -1).at(3, -1) == weighted_tail([0, 1], 3, 1)
    G = Antidifference([1], 2)
    assert G.at(0).render() == "q^-2 / (1-q^-2)"
    assert G.at(0).eval_at(3) == Fraction(1, 8)  # sum of 9^tau over tau <= -1
    # the counting sum: sum_{0 <= tau <= 9} tau^2 = 285
    assert (Antidifference([0, 0, 1], 0).at(10) - Antidifference([0, 0, 1], 0).at(0)).as_rational() == 285
    assert not Antidifference([0, Fraction(0)], 2).nums()


@settings(max_examples=300, deadline=None)
@given(
    st.lists(tail_coeffs, min_size=1, max_size=5),
    st.integers(-4, 4),
    st.integers(-10, 10),
    st.integers(-10, 10),
)
def test_a_finite_range_sum_is_one_element(poly, e1, a, b):
    G = Antidifference(poly, e1)
    got = G.between(a, b)
    for p in (2, 3, 5):
        direct = sum(
            (sum(Fraction(c) * tau**i for i, c in enumerate(poly)) * Fraction(p) ** (e1 * tau)
             for tau in range(a, b + 1)),
            Fraction(0),
        )
        assert got.eval_at(p) == direct
    if a <= b + 1:
        assert got == G.at(a, -1) + G.at(b + 1)
    else:
        assert got.is_zero()  # G(b+1) - G(a) is minus the sum over b < tau < a
    if e1 != 0:
        assert got.den == {}


def test_gamma_weight_sum_additive_over_refinements():
    _, ok, detail = check_presburger_additivity(120)
    assert ok, detail


def test_wellorder_examples():
    assert wellorder_less(0, 1)
    assert wellorder_less(3, -3)
    assert wellorder_less(-1, 2)
    chain = [0, 1, -1, 2, -2, 3, -3, 4, -4]
    for i in range(len(chain)):
        for j in range(len(chain)):
            assert wellorder_less(chain[i], chain[j]) == (i < j)


def test_wellorder_is_a_strict_total_order():
    window = range(-50, 51)
    for x in window:
        assert not wellorder_less(x, x)
    rng = random.Random(23)
    for _ in range(500):
        x, y, z = rng.randint(-900, 900), rng.randint(-900, 900), rng.randint(-900, 900)
        if x != y:
            assert wellorder_less(x, y) != wellorder_less(y, x)
        if wellorder_less(x, y) and wellorder_less(y, z):
            assert wellorder_less(x, z)


def test_wellorder_min_examples():
    assert wellorder_min([GammaCell(None, -2, 3, 1)]) == -5
    assert wellorder_min([GammaCell(-4, 4, 2, 0)]) == 0
    assert wellorder_min([GammaCell(2, 4, 1, 0), GammaCell(-4, -2, 1, 0)]) == 3
    with pytest.raises(EmptySet):
        wellorder_min([GammaCell(0, 1, 1, 0)])


def test_wellorder_min_against_zigzag_scan():
    _, ok, detail = check_wellorder(400)
    assert ok, detail


def test_wellorder_min_product():
    cells = [
        (GammaCell(0, 10, 1, 0), GammaCell(None, -1, 2, 1)),
        (GammaCell(4, 9, 1, 0), GammaCell(0, 3, 1, 0)),
    ]
    # first cell least tuple: (1, -3); second: (5, 1); (1,-3) lex-precedes
    assert wellorder_min_product(cells) == (1, -3)
    with pytest.raises(EmptySet):
        wellorder_min_product([(GammaCell(0, 1, 1, 0), GammaCell(0, 10, 1, 0))])
    # brute check on a sample
    rng = random.Random(31)
    for _ in range(100):
        # members lie in -19..79, and the least one in the well-order within 26
        # of 0, inside the window of brute_members below
        prod = [(random_gamma_cell(rng, 20, 0.0), random_gamma_cell(rng, 20, 0.0)) for _ in range(2)]
        prod = [pc for pc in prod if not pc[0].is_empty() and not pc[1].is_empty()]
        if not prod:
            continue
        computed = wellorder_min_product(prod)
        points = [
            (a, b)
            for c1, c2 in prod
            for a in brute_members(c1, -60, 60)
            for b in brute_members(c2, -60, 60)
        ]
        best = min(points, key=lambda t: (wellorder_key(t[0]), wellorder_key(t[1])))
        assert computed == best


def test_disjointness_examples():
    assert cells_disjoint(GammaCell(None, None, 2, 0), GammaCell(None, None, 2, 1))
    a = GammaCell(0, 10, 3, 1)
    b = GammaCell(5, None, 3, 1)
    assert not cells_disjoint(a, b)  # 7 is shared
    assert intersect_cells(a, b).contains(7)
    assert cells_disjoint(GammaCell(None, None, 4, 1), GammaCell(None, None, 4, 3))


def test_disjointness_against_enumeration():
    rng = random.Random(37)
    for _ in range(400):
        c1, c2 = random_gamma_cell(rng, 40, 0.2), random_gamma_cell(rng, 40, 0.2)
        shared = [g for g in range(-150, 150) if c1.contains(g) and c2.contains(g)]
        if shared:
            assert not cells_disjoint(c1, c2)
            both = intersect_cells(c1, c2)
            assert all(both.contains(g) for g in shared)
        elif cells_disjoint(c1, c2):
            pass  # consistent
        else:
            both = intersect_cells(c1, c2)
            members = brute_members(both, -2000, 2000)
            assert members or cell_cardinality(both) is INFINITY


def test_prepared_eval_examples():
    assert prepared_eval(PreparedLinear(2, 1, 3, 5), 7) == 9
    assert prepared_eval(PreparedLinear(0, 0, 1, 42), 17) == 42
    assert prepared_eval(PreparedLinear(1, 0, 1, 0), -6) == -6
    with pytest.raises(DomainError):
        prepared_eval(PreparedLinear(2, 1, 3, 5), 6)


def test_union_validates_disjointness():
    GammaCellUnion([GammaCell(None, None, 2, 0), GammaCell(None, None, 2, 1)])
    with pytest.raises(ValueError):
        GammaCellUnion([GammaCell(0, 10, 1, 0), GammaCell(5, 15, 1, 0)])


def test_cell_json_round_trip():
    cell = GammaCell(-3, None, 4, 1)
    assert GammaCell.from_json(cell.to_json()) == cell
    union = GammaCellUnion([GammaCell(0, 5, 2, 0), GammaCell(0, 5, 2, 1)])
    again = GammaCellUnion.from_json(union.to_json())
    assert again.cells == union.cells


@pytest.mark.parametrize(
    "bound", [0.5, "3", Fraction(1, 2), (1, 2), True], ids=["float", "str", "Fraction", "tuple", "bool"]
)
def test_a_bound_of_another_type_is_a_named_domain_error(bound):
    for lower, upper, name in ((bound, 4, "lower"), (-1, bound, "upper")):
        with pytest.raises(DomainError, match=f"the {name} bound of a value-group cell .* not {type(bound).__name__} "):
            GammaCell(lower, upper)


def test_a_symbolic_bound_is_a_named_domain_error():
    ref = LinExpr(PreparedLinear(1, 0, 1, 0), "g1")
    for cell in (GammaCell(ref, None), GammaCell(None, ref), GammaCell(0, ref, 1, 0)):
        calls = [
            lambda: geom_sum(cell, 1),
            lambda: weighted_sum(cell, [0, 1], 1),
            lambda: cell_cardinality(cell),
            lambda: wellorder_min([cell]),
            lambda: cell.contains(3),
            lambda: intersect_cells(cell, GammaCell(0, 9)),
            lambda: intersect_cells(GammaCell(None, None), cell),
            lambda: intersect_cells(cell, cell),
        ]
        for call in calls:
            with pytest.raises(DomainError, match="value-group variable g1"):
                call()
    # a field cell builds its value-group cell once, with the same fields
    kcell = KCell(Fraction(1, 3), -1, 7, 3, 2, 1, AngularResidue(1, 1), Prime(2))
    assert kcell.gamma_cell() == GammaCell(-1, 7, 3, 2)
    assert kcell.gamma_cell() is kcell.gamma_cell()
    with pytest.raises(ValueError, match="modulus must be >= 1"):
        KCell(Fraction(0), -1, None, 0, 0, 1, AngularResidue(1, 1), Prime(2))
    with pytest.raises(ValueError, match="residue must satisfy"):
        KCell(Fraction(0), -1, None, 2, 2, 1, AngularResidue(1, 1), Prime(2))
