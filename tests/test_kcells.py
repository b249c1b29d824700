import random
from fractions import Fraction

import pytest

from padicint import (
    AngularResidue,
    AqElem,
    GammaCell,
    InfiniteMeasure,
    KCell,
    PAdicPoint,
    Prime,
    kcell_contains,
    kcell_measure,
    kcells_disjoint,
    intersect_cells,
    partition_unit_ball,
    rational_ac,
    rational_ord,
)
from padicint.selfcheck import (
    check_counting_oracle,
    check_partition_normalization,
    check_translation_invariance,
    random_gamma_cell,
    random_kcell,
)

P2, P3, P5 = Prime(2), Prime(3), Prime(5)


def mk(center, lower, upper, mod, res, M, xi, prime):
    return KCell(Fraction(center), lower, upper, mod, res, M, AngularResidue(M, xi), prime)


def test_membership_examples():
    cell = mk(0, -1, None, 1, 0, 1, 1, P2)
    assert kcell_contains(PAdicPoint(Fraction(3), P2), cell)
    assert not kcell_contains(PAdicPoint(Fraction(0), P2), cell)
    cell = mk(0, 2, 4, 1, 0, 1, 2, P3)
    assert kcell_contains(PAdicPoint(Fraction(54), P3), cell)  # 54 = 2 * 27


def test_membership_prime_mismatch():
    cell = mk(0, -1, None, 1, 0, 1, 1, P2)
    with pytest.raises(ValueError):
        kcell_contains(PAdicPoint(Fraction(3), P3), cell)


def test_degenerate_cell_is_its_center():
    cell = mk(Fraction(5, 3), None, None, 1, 0, 1, 0, P2)
    assert cell.contains_value(Fraction(5, 3))
    assert not cell.contains_value(Fraction(4, 3))
    assert kcell_measure(cell).is_zero()


def test_measure_examples():
    cell = mk(0, -1, None, 1, 0, 1, 1, P2)
    mu = kcell_measure(cell)
    assert mu == AqElem.q_power(-1) * AqElem.geom(1)
    assert mu.eval_at(P2) == 1
    cell = mk(0, 2, 4, 1, 0, 1, 2, P3)
    mu = kcell_measure(cell)
    assert mu == AqElem.q_power(-4)
    assert mu.eval_at(P3) == Fraction(1, 81)


def test_infinite_measure():
    with pytest.raises(InfiniteMeasure):
        kcell_measure(mk(0, None, 3, 1, 0, 1, 1, P2))


def test_measure_is_translation_invariant():
    _, ok, detail = check_translation_invariance(50)
    assert ok, detail


def test_partition_examples():
    cells = partition_unit_ball(1, 1, P3)
    assert len(cells) == 2
    assert sum((kcell_measure(c).eval_at(P3) for c in cells), Fraction(0)) == 1
    cells = partition_unit_ball(1, 2, P2)
    assert len(cells) == 2
    measures = sorted(kcell_measure(c).eval_at(P2) for c in cells)
    assert sum(measures, Fraction(0)) == 1
    cells = partition_unit_ball(2, 1, P2)
    assert sorted(c.ac_value.r for c in cells) == [1, 3]


def test_partition_normalization_and_disjointness():
    _, ok, detail = check_partition_normalization()
    assert ok, detail


def test_partition_covers_unit_ball_minus_origin():
    for prime in (P2, P3):
        cells = partition_unit_ball(2, 2, prime)
        for t in list(range(1, 40)) + [Fraction(5, 7), Fraction(9, 11)]:
            if rational_ord(Fraction(t), prime.p) < 0:
                continue
            hits = [c for c in cells if c.contains_value(Fraction(t))]
            assert len(hits) == 1
        assert not any(c.contains_value(Fraction(0)) for c in cells)


def test_disjointness_examples():
    a = mk(0, -1, None, 2, 0, 1, 1, P3)
    b = mk(0, -1, None, 2, 1, 1, 1, P3)
    assert kcells_disjoint(a, b)
    a = mk(0, -1, None, 1, 0, 1, 1, P3)
    b = mk(0, -1, None, 1, 0, 1, 2, P3)
    assert kcells_disjoint(a, b)
    a = mk(0, 5, None, 1, 0, 1, 1, P2)
    b = mk(1, 5, None, 1, 0, 1, 1, P2)
    assert kcells_disjoint(a, b)
    # depth-3 angular values 37 and 109 at p = 5 around the centers 0 and 5
    a = mk(0, -1, None, 1, 0, 3, 37, P5)
    b = mk(5, -1, None, 1, 0, 3, 109, P5)
    assert kcells_disjoint(a, b)
    assert kcells_disjoint(b, a)


def test_disjointness_degenerate_cases():
    point = mk(3, None, None, 1, 0, 1, 0, P2)
    same_point = mk(3, None, None, 2, 1, 2, 0, P2)
    other_point = mk(5, None, None, 1, 0, 1, 0, P2)
    assert not kcells_disjoint(point, same_point)
    assert kcells_disjoint(point, other_point)
    ball = mk(0, -1, None, 1, 0, 1, 1, P2)
    assert not kcells_disjoint(point, ball)  # 3 is a unit
    assert kcells_disjoint(mk(0, None, None, 1, 0, 1, 0, P2), ball)  # 0 excluded


def test_disjointness_never_contradicts_a_witness():
    # whenever a common rational point is found by sampling, the decision
    # procedure must report overlap
    rng = random.Random(43)
    for prime in (P2, P3):
        p = prime.p
        sample = [Fraction(n, d) for n in range(-40, 41) for d in (1, p, p * p, 3 if p != 3 else 5)]
        for _ in range(150):
            c1, c2 = random_kcell(rng, prime), random_kcell(rng, prime)
            witness = next(
                (t for t in sample if c1.contains_value(t) and c2.contains_value(t)),
                None,
            )
            if witness is not None:
                assert not kcells_disjoint(c1, c2), (c1, c2, witness)


def test_disjointness_of_separated_annuli():
    # cells around distinct centers whose valuation ranges both exceed the
    # distance of the centers cannot meet
    rng = random.Random(47)
    for prime in (P2, P3):
        for _ in range(100):
            d = rng.randint(-2, 3)
            c2 = Fraction(prime.p) ** d * rng.choice([1, 2 if prime.p != 2 else 1, -1])
            lo = d + rng.randint(1, 3)
            a = mk(0, lo, lo + 3, 1, 0, 1, 1, prime)
            b = KCell(c2, lo, lo + 3, 1, 0, 1, AngularResidue(1, 1), prime)
            assert kcells_disjoint(a, b)


def test_counting_oracle_exact():
    _, ok, detail = check_counting_oracle(25)
    assert ok, detail


def test_json_round_trip():
    cell = mk(Fraction(7, 3), -1, 4, 2, 1, 2, 5, P3)
    data = cell.to_json()
    assert data["center"] == "7/3"
    assert KCell.from_json(data) == cell


# -- ball_status and disjointness against enumeration ------------------------
#
# A cell with a center in Z_p and upper + M <= D is a union of residue
# classes mod p^D, and so is a ball a + p^r Z_p with r <= D, so both are
# decided exactly by their sets of residues mod p^D.  A point cell {c} is
# the residue of c; the centers of random_kcell are too close together for
# two of them to share one.

_ENUM_DEPTH = {2: 9, 3: 6}


def _residues(cell, D):
    p = cell.prime.p
    if cell.ac_value.r == 0:
        c = cell.center
        return frozenset([c.numerator * pow(c.denominator, -1, p**D) % p**D])
    return frozenset(t for t in range(p**D) if cell.contains_value(t))


def _cell_pool(seed):
    rng = random.Random(seed)
    pool = []
    for prime in (P2, P3):
        D = _ENUM_DEPTH[prime.p]
        for _ in range(25):
            cell = random_kcell(rng, prime, D)
            pool.append((cell, D, _residues(cell, D)))
    return pool


def test_ball_status_matches_enumeration():
    rng = random.Random(59)
    seen = set()
    for cell, D, members in _cell_pool(59):
        if cell.ac_value.r == 0:
            continue
        p = cell.prime.p
        for _ in range(30):
            r = rng.randint(0, D)
            a = rng.randrange(p**D)
            ball = {a % p**r + j * p**r for j in range(p ** (D - r))}
            inside = len(ball & members)
            status = cell.ball_status(a, r)
            expected = "out" if inside == 0 else "in" if inside == len(ball) else "meets"
            assert status == expected, (cell, a, r)
            seen.add(status)
    assert seen == {"in", "out", "meets"}


def test_ball_status_of_point_cells():
    for center in (Fraction(0), Fraction(6), Fraction(5, 7)):
        point = mk(center, None, None, 1, 0, 1, 0, P3)
        for r in range(5):
            for a in range(-30, 30):
                holds = rational_ord(a - center, 3) >= r
                assert point.ball_status(a, r) == ("meets" if holds else "out"), (center, a, r)


def test_ball_status_around_the_center_matches_the_cell_intersection():
    # a ball a + p^r Z_p that holds the center meets the cell exactly when
    # the cell's value-group cell has a member >= r, which is what the
    # intersection with GammaCell(r - 1, None) decides
    rng = random.Random(67)
    seen = set()
    for prime in (P2, P3):
        p = prime.p
        cells = [random_kcell(rng, prime) for _ in range(40)]
        for _ in range(40):
            g = random_gamma_cell(rng, 4, 0.3)
            cells.append(mk(rng.randint(-9, 9), g.lower, g.upper, g.mod, g.res, 1, 1, prime))
        for cell in cells:
            for r in range(9):
                deeper = intersect_cells(cell.gamma_cell(), GammaCell(r - 1, None)) is not None
                expected = "meets" if cell.ac_value.r == 0 or deeper else "out"
                for a in (cell.center, cell.center + p**r * rng.randint(-20, 20)):
                    assert cell.ball_status(a, r) == expected, (cell, a, r)
                seen.add(expected)
    assert seen == {"meets", "out"}


def _off_lattice(rng, p, j):
    """A rational with denominator p^j times 1 or 1 + p."""
    return Fraction(rng.randint(-200, 200), p**j * rng.choice((1, 1 + p)))


def test_ball_status_on_fraction_points_and_centers():
    # kcells_disjoint passes Fraction points c1 + p^gamma xi to ball_status,
    # and a domain cell's center may have p in its denominator
    rng = random.Random(71)
    seen = set()
    for prime in (P2, P3):
        p = prime.p
        for _ in range(60):
            c = random_kcell(rng, prime)
            if c.ac_value.r == 0:
                continue
            xi, M = c.ac_value.r, c.ac_depth
            cell = KCell(_off_lattice(rng, p, rng.randint(0, 3)), c.lower, c.upper, c.mod, c.res, M, c.ac_value, prime)
            for _ in range(12):
                a, r = _off_lattice(rng, p, rng.randint(0, 3)), rng.randint(-4, 6)
                status = cell.ball_status(a, r)
                shifts = [0] + [_off_lattice(rng, p, 0) for _ in range(8)]
                points = [a + Fraction(p) ** r * s for s in shifts]
                # the status is the same for every representative of the ball
                assert all(cell.ball_status(t, r) == status for t in points), (cell, a, r)
                contained = [cell.contains_value(t) for t in points]
                if status == "in":
                    assert all(contained), (cell, a, r)
                elif status == "out":
                    assert not any(contained), (cell, a, r)
                seen.add(status)
                # membership agrees with ord and ac of the Fraction t - center
                for t, inside in zip(points, contained):
                    w = t - cell.center
                    expected = w != 0 and cell.gamma_cell().contains(rational_ord(w, p))
                    expected = expected and rational_ac(w, p, M) == xi
                    assert inside == expected, (cell, t)
    assert seen == {"in", "out", "meets"}


def test_ball_status_of_point_cells_off_the_lattice():
    rng = random.Random(73)
    for prime in (P2, P3):
        p = prime.p
        for _ in range(30):
            center = _off_lattice(rng, p, rng.randint(0, 3))
            point = mk(center, None, None, 1, 0, 1, 0, prime)
            assert point.contains_value(center) and point.ball_status(center, 9) == "meets"
            for _ in range(20):
                a, r = _off_lattice(rng, p, rng.randint(0, 3)), rng.randint(-4, 6)
                holds = rational_ord(a - center, p) >= r
                assert point.ball_status(a, r) == ("meets" if holds else "out"), (center, a, r)
                assert point.contains_value(a) == (a == center)


def test_disjointness_matches_enumeration():
    pool = _cell_pool(61)
    seen = set()
    for c1, D, m1 in pool:
        for c2, _, m2 in pool:
            if c1.prime != c2.prime:
                continue
            disjoint = not (m1 & m2)
            assert kcells_disjoint(c1, c2) == disjoint, (c1, c2)
            seen.add(disjoint)
    assert seen == {True, False}
