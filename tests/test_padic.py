import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicint import (
    BudgetExceeded,
    INFINITY,
    AngularResidue,
    PAdicPoint,
    Prime,
    enumerate_residues,
    is_prime,
    rational_ac,
    rational_ord,
)
from padicint.padic import unit_part


def test_prime_validation():
    Prime(2)
    Prime(97)
    with pytest.raises(ValueError):
        Prime(1)
    with pytest.raises(ValueError):
        Prime(91)  # 7 * 13


def test_is_prime_small():
    primes = [p for p in range(2, 60) if is_prime(p)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def test_infinity_ordering():
    assert INFINITY > 10**18
    assert not INFINITY < 5
    assert INFINITY >= INFINITY
    assert INFINITY == INFINITY
    assert INFINITY + 7 is INFINITY
    assert 7 + INFINITY is INFINITY
    assert 3 < INFINITY


def test_ord_examples():
    p2 = Prime(2)
    assert PAdicPoint(Fraction(12), p2).ord() == 2
    assert PAdicPoint(Fraction(0), p2).ord() is INFINITY
    assert PAdicPoint(Fraction(0), Prime(5)).ord() is INFINITY
    assert PAdicPoint(Fraction(8, 3), p2).ord() == 3


def test_ac_examples():
    assert rational_ac(12, 2, 2) == 3
    assert rational_ac(0, 5, 3) == 0
    # unit part of 8/3 is 1/3; the inverse of 3 mod 4 is 3
    assert rational_ac(Fraction(8, 3), 2, 2) == 3
    brute = [r for r in range(4) if (3 * r) % 4 == 1]
    assert brute == [3]


def test_ac_with_p_in_the_denominator_and_negative_inputs():
    # 5/12 = 2^-2 * 5/3 and 5/3 = 5 * 3 = 3 mod 4; -12 = 2^2 * -3 = 2^2 * 5 mod 8;
    # 7/45 = 3^-2 * 7/5 and 7/5 = 7 * 2 = 5 mod 9
    assert rational_ac(Fraction(5, 12), 2, 2) == 3
    assert rational_ac(Fraction(-5, 12), 2, 2) == 1
    assert rational_ac(-12, 2, 3) == 5
    assert rational_ac(Fraction(7, 45), 3, 2) == 5


def _ac_by_definition(x, p, m):
    """(x / p^ord x) mod p^m, through Fraction."""
    unit = Fraction(x) / Fraction(p) ** rational_ord(x, p)
    return unit.numerator * pow(unit.denominator, -1, p**m) % p**m


def test_ac_matches_its_definition():
    rng = random.Random(31)
    for p in (2, 3, 5, 7):
        for m in (1, 2, 3, 4):
            for _ in range(60):
                n = rng.randint(-10**4, 10**4) or 1
                x = Fraction(n * p ** rng.randint(0, 4), rng.randint(1, 50) * p ** rng.randint(0, 4))
                assert rational_ac(x, p, m) == _ac_by_definition(x, p, m), (x, p, m)
                assert rational_ac(n, p, m) == _ac_by_definition(n, p, m), (n, p, m)
    # any other rational type is converted to a Fraction first
    assert rational_ac(0.75, 2, 2) == rational_ac(Fraction(3, 4), 2, 2) == 3
    assert rational_ac(Decimal("-2.5"), 5, 2) == rational_ac(Fraction(-5, 2), 5, 2)


def test_ac_output_is_unit_or_zero():
    rng = random.Random(7)
    for p in (2, 3, 5):
        for m in (1, 2, 3):
            for _ in range(50):
                x = Fraction(rng.randint(-400, 400), rng.randint(1, 60))
                r = rational_ac(x, p, m)
                res = AngularResidue(m, r)
                res.validate(Prime(p))
                if x != 0:
                    assert r % p != 0


def test_ord_is_a_valuation():
    rng = random.Random(13)
    for p in (2, 3, 5):
        for _ in range(200):
            x = Fraction(rng.randint(-500, 500), rng.randint(1, 100))
            y = Fraction(rng.randint(-500, 500), rng.randint(1, 100))
            ox, oy = rational_ord(x, p), rational_ord(y, p)
            assert rational_ord(x * y, p) == ox + oy
            if x + y != 0:
                assert rational_ord(x + y, p) >= min(ox, oy)


def test_ac_is_multiplicative():
    rng = random.Random(17)
    for p in (2, 3, 5):
        for m in (1, 2, 3):
            mod = p**m
            for _ in range(100):
                x = Fraction(rng.randint(1, 300), rng.randint(1, 50))
                y = Fraction(rng.randint(1, 300), rng.randint(1, 50))
                assert (
                    rational_ac(x * y, p, m)
                    == rational_ac(x, p, m) * rational_ac(y, p, m) % mod
                )


def test_reconstruction_congruence_on_integers():
    # nonzero x lies in p^ord(x) * (ac(x, m) + p^m Z_p)
    rng = random.Random(23)
    for p in (2, 3):
        for m in (1, 2, 3):
            for _ in range(100):
                x = rng.randint(1, 10**6)
                v = rational_ord(x, p)
                unit = x // p**v
                assert unit % p**m == rational_ac(x, p, m)


def test_ac_depth_one_at_p2():
    rng = random.Random(29)
    for _ in range(100):
        x = Fraction(rng.randint(1, 999), rng.randint(1, 99))
        assert rational_ac(x, 2, 1) == 1
        assert rational_ac(-x, 2, 1) == 1


def test_enumerate_residues_examples():
    assert list(enumerate_residues(1, 1, Prime(2))) == [(0,), (1,)]
    assert list(enumerate_residues(2, 1, Prime(2))) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert list(enumerate_residues(1, 0, Prime(3))) == [(0,)]


def test_enumerate_residues_lexicographic_and_complete():
    seen = list(enumerate_residues(2, 2, Prime(3)))
    assert len(seen) == 81
    assert len(set(seen)) == 81
    assert seen == sorted(seen)


def test_enumeration_budget():
    with pytest.raises(BudgetExceeded):
        list(enumerate_residues(3, 4, Prime(5), budget=10**6))


def _unit_part_by_division(num, den, p):
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v, num, den


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from((2, 3, 5, 7, 101)),
    st.integers(-10**6, 10**6).filter(lambda u: u != 0),
    st.integers(1, 10**6),
    st.integers(0, 300),
    st.integers(0, 300),
)
def test_unit_part_matches_division_one_p_at_a_time(p, u, w, v1, v2):
    # u and w may hold p too, so both sides strip more than v1 and v2
    num, den = u * p**v1, w * p**v2
    assert unit_part(num, den, p) == _unit_part_by_division(num, den, p)

