"""The shared generators of selfcheck reach every shape their docstrings
promise, so that the checks and property tests built on them see those
shapes too."""

import random
from collections import Counter

from padicint import UNIT_BALL, Prime
from padicint.selfcheck import random_built_elem, random_gamma_cell, random_kcell, random_region


def _shapes_of_kcell(cell, seen: Counter):
    seen["point"] += cell.ac_value.r == 0
    seen["unbounded"] += cell.ac_value.r != 0 and cell.upper is None
    seen["non-integral centre"] += cell.center.denominator > 1
    seen["modulus > 1"] += cell.mod > 1
    seen["angular depth 2"] += cell.ac_depth == 2
    seen["outside Z_p"] += cell.lower is not None and cell.lower < -1


def test_random_gamma_cell_reaches_every_shape():
    rng = random.Random(1)
    for span, open_ends in ((10, 0.0), (10, 0.3), (1000, 0.2)):
        seen = Counter()
        for _ in range(300):
            cell = random_gamma_cell(rng, span, open_ends)
            assert cell.lower is None or -span <= cell.lower <= span
            seen["modulus > 1"] += cell.mod > 1
            seen["unbounded below"] += cell.lower is None
            seen["unbounded above"] += cell.upper is None
            seen["bounded"] += cell.lower is not None and cell.upper is not None
        assert seen["modulus > 1"] and seen["bounded"], (span, open_ends)
        if open_ends:
            assert seen["unbounded below"] and seen["unbounded above"], (span, open_ends)
        else:
            assert seen["bounded"] == 300


def test_random_kcell_reaches_every_shape():
    rng = random.Random(2)
    for prime in (Prime(2), Prime(3)):
        seen = Counter()
        for _ in range(300):
            _shapes_of_kcell(random_kcell(rng, prime), seen)
        assert all(seen[shape] for shape in (
            "point", "unbounded", "non-integral centre", "modulus > 1", "angular depth 2", "outside Z_p"
        )), seen
        # with a depth, every cell is a union of residue classes mod p^depth
        depth = 6
        seen = Counter()
        for _ in range(300):
            cell = random_kcell(rng, prime, depth)
            _shapes_of_kcell(cell, seen)
            if cell.ac_value.r:
                assert -1 <= cell.lower < cell.upper <= depth - cell.ac_depth
        assert seen["unbounded"] == seen["outside Z_p"] == 0
        assert all(seen[shape] for shape in ("point", "non-integral centre", "modulus > 1")), seen


def test_random_region_reaches_every_shape():
    rng = random.Random(3)
    for prime in (Prime(2), Prime(3)):
        seen = Counter()
        for _ in range(300):
            region = random_region(rng, prime)
            if region is UNIT_BALL:
                seen["unit ball"] += 1
                continue
            seen["two cells"] += len(region) == 2
            for cell in region:
                _shapes_of_kcell(cell, seen)
        assert seen["outside Z_p"] == 0
        assert all(seen[shape] for shape in (
            "unit ball", "two cells", "point", "unbounded", "non-integral centre", "modulus > 1"
        )), seen


def test_random_built_elem_reaches_every_shape():
    rng = random.Random(4)
    seen = Counter()
    for _ in range(300):
        elem, values, m, mult, den = random_built_elem(rng)
        assert not m.is_zero() and set(values) == {2, 3, 5}
        seen["factors"] += bool(mult)
        seen["no factors"] += not mult
        seen["cancelled factors"] += bool(set(mult) & set(den))
        seen["denominator left"] += bool(elem.den)
        seen["index > 12"] += any(i > 12 for i in list(mult) + list(den))
        seen["fractional coefficient"] += any(
            getattr(c, "denominator", 1) > 1 for c in m.coeffs.values()
        )
    assert all(seen[shape] for shape in (
        "factors", "no factors", "cancelled factors", "denominator left", "index > 12",
        "fractional coefficient",
    )), seen
