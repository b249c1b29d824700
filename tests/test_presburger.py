import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicint import (
    AqElem,
    DivergentSum,
    DomainError,
    EmptySet,
    GammaCell,
    GammaCellUnion,
    INFINITY,
    PreparedLinear,
    cell_cardinality,
    cells_disjoint,
    gamma_weight_sum,
    geom_sum,
    intersect_cells,
    prepared_eval,
    weighted_sum,
    wellorder_less,
    wellorder_min,
    wellorder_min_product,
)
from padicint.polys import finite_differences, poly_shift
from padicint.presburger import weighted_tail, wellorder_key


def brute_members(cell: GammaCell, lo=-500, hi=500):
    return [g for g in range(lo, hi) if cell.contains(g)]


def test_cardinality_examples():
    assert cell_cardinality(GammaCell(0, 5, 2, 0)) == 2  # {2, 4}
    assert cell_cardinality(GammaCell(2, None, 1, 0)) is INFINITY
    assert cell_cardinality(GammaCell(0, 1, 1, 0)) == 0


def test_cardinality_matches_enumeration():
    rng = random.Random(5)
    for _ in range(300):
        mod = rng.randint(1, 6)
        lower = rng.randint(-30, 20)
        cell = GammaCell(lower, lower + rng.randint(0, 40), mod, rng.randrange(mod))
        assert cell_cardinality(cell) == len(brute_members(cell))


def test_geom_sum_examples():
    # unbounded: tau >= 2 after reindexing
    s = geom_sum(GammaCell(1, None, 1, 0), 1)
    assert s == AqElem.q_power(-2) * AqElem.geom(1)
    # bounded: both endpoint terms appear
    s = geom_sum(GammaCell(0, 5, 2, 0), 2)
    assert s == AqElem.q_power(-2) + AqElem.q_power(-4)
    assert geom_sum(GammaCell(0, 1, 1, 0), 1).is_zero()


def test_geom_sum_agrees_with_enumeration():
    rng = random.Random(11)
    for _ in range(250):
        mod = rng.randint(1, 5)
        lower = rng.randint(-10, 10)
        cell = GammaCell(lower, lower + rng.randint(1, 25), mod, rng.randrange(mod))
        for N in (1, 2, 3):
            closed = geom_sum(cell, N)
            for q in (2, 3, 5):
                direct = sum(
                    (
                        Fraction(q) ** (-N * ((g - cell.res) // cell.mod))
                        for g in cell.members()
                    ),
                    Fraction(0),
                )
                assert closed.eval_at(q) == direct


def test_geom_sum_tail_bound():
    rng = random.Random(13)
    for _ in range(60):
        mod = rng.randint(1, 4)
        cell = GammaCell(rng.randint(-1, 8), None, mod, rng.randrange(mod))
        N = rng.randint(1, 3)
        a, _ = cell.tau_bounds()
        assert a >= 0
        closed = geom_sum(cell, N)
        for q in (2, 3, 5):
            for depth in (5, 15, 30):
                partial = sum(
                    (Fraction(q) ** (-N * (a + j)) for j in range(depth)), Fraction(0)
                )
                bound = Fraction(q) ** (-N * depth) / (1 - Fraction(q) ** (-N))
                assert abs(closed.eval_at(q) - partial) <= bound


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


def test_weighted_sum_agrees_with_enumeration():
    rng = random.Random(17)
    for _ in range(200):
        mod = rng.randint(1, 4)
        lower = rng.randint(-8, 8)
        cell = GammaCell(lower, lower + rng.randint(1, 18), mod, rng.randrange(mod))
        poly = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rng.randint(1, 4))]
        for N in (0, 1, 2):
            closed = weighted_sum(cell, poly, N)
            for q in (2, 3, 5):
                direct = Fraction(0)
                for g in cell.members():
                    tau = (g - cell.res) // cell.mod
                    val = Fraction(0)
                    for c in reversed(poly):
                        val = val * tau + c
                    direct += val * Fraction(q) ** (-N * tau)
                assert closed.eval_at(q) == direct


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


def test_gamma_weight_sum_additive_over_refinements():
    rng = random.Random(19)
    for _ in range(120):
        mod = rng.randint(1, 3)
        lower = rng.randint(-6, 6)
        upper = lower + rng.randint(1, 20) if rng.random() < 0.7 else None
        cell = GammaCell(lower, upper, mod, rng.randrange(mod))
        pieces = [
            GammaCell(cell.lower, cell.upper, 3 * cell.mod, cell.res + i * cell.mod)
            for i in range(3)
        ]
        whole = gamma_weight_sum(cell, 1)
        assert whole == sum(
            (gamma_weight_sum(piece, 1) for piece in pieces), AqElem.zero()
        )


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
    rng = random.Random(29)
    for _ in range(400):
        cells = []
        for _ in range(rng.randint(1, 3)):
            mod = rng.randint(1, 6)
            lower = rng.randint(-300, 100) if rng.random() < 0.85 else None
            upper = (
                (lower if lower is not None else -50) + rng.randint(1, 400)
                if rng.random() < 0.85
                else None
            )
            cells.append(GammaCell(lower, upper, mod, rng.randrange(mod)))
        cells = [c for c in cells if not c.is_empty()]
        if not cells:
            continue
        computed = wellorder_min(cells)
        for key in range(0, 10**4):
            candidate = (key + 1) // 2 if key % 2 else -(key // 2)
            if any(c.contains(candidate) for c in cells):
                assert candidate == computed
                break


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
        def cell():
            mod = rng.randint(1, 3)
            lower = rng.randint(-20, 10)
            return GammaCell(lower, lower + rng.randint(1, 30), mod, rng.randrange(mod))

        prod = [(cell(), cell()) for _ in range(2)]
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
        def cell():
            mod = rng.randint(1, 6)
            lower = rng.randint(-40, 30) if rng.random() < 0.8 else None
            upper = (
                (lower if lower is not None else -40) + rng.randint(1, 60)
                if rng.random() < 0.8
                else None
            )
            return GammaCell(lower, upper, mod, rng.randrange(mod))

        c1, c2 = cell(), cell()
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
