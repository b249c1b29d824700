import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicint import AqElem, Domain, LaurentPoly, Prime, aq_add, aq_eval, aq_mul, integrate, polys
from padicint.aqring import _cancel, _times_den, _nonzero
from padicint.parsing import parse_integrand
from padicint.selfcheck import _times_factors, check_aq_cancellation, random_built_elem


def geo(i, e=1):
    return AqElem.geom(i, e)


def qp(k, c=1):
    return AqElem.q_power(k, c)


def test_add_examples():
    # telescoping: 1/(1-q^-1) - q^-1/(1-q^-1) = 1
    assert (geo(1) + qp(-1, -1) * geo(1)) == AqElem.one()
    x = qp(3) * geo(2)
    assert (x + AqElem.zero()) == x
    assert aq_eval(aq_add(geo(1), geo(2)), Prime(2)) == Fraction(10, 3)


def test_mul_examples():
    one_minus = AqElem.one() - qp(-1)
    assert aq_mul(one_minus, geo(1)) == AqElem.one()
    assert qp(3) * qp(-5) == qp(-2)
    assert aq_eval(geo(1) * geo(1), Prime(2)) == 4


def test_eval_examples():
    assert geo(2).eval_at(3) == Fraction(9, 8)
    assert qp(-4).eval_at(3) == Fraction(1, 81)
    # q^-1/(1-q^-1)^2 at q=2 equals the series sum of tau * 2^-tau
    elem = qp(-1) * geo(1, 2)
    assert elem.eval_at(2) == 2
    partial = sum(Fraction(t, 2**t) for t in range(200))
    assert abs(partial - 2) < Fraction(1, 2**150)


def _random_elem(rng: random.Random) -> AqElem:
    num = LaurentPoly(
        {rng.randint(-4, 4): Fraction(rng.randint(-5, 5)) for _ in range(rng.randint(1, 4))}
    )
    den = {}
    for _ in range(rng.randint(0, 2)):
        den[rng.randint(1, 3)] = rng.randint(1, 2)
    return AqElem(num, den)


def test_eval_is_a_ring_homomorphism():
    rng = random.Random(101)
    for _ in range(200):
        a = _random_elem(rng)
        b = _random_elem(rng)
        for p in (2, 3, 5):
            prime = Prime(p)
            assert aq_eval(a + b, prime) == aq_eval(a, prime) + aq_eval(b, prime)
            assert aq_eval(a * b, prime) == aq_eval(a, prime) * aq_eval(b, prime)


def test_canonicalization_is_idempotent():
    rng = random.Random(103)
    for _ in range(100):
        a = _random_elem(rng)
        again = AqElem(a.num, a.den)
        assert again.num == a.num and again.den == a.den


def test_canonical_equality_vs_three_prime_evaluation():
    # equality is decided by cross-multiplication; evaluation at several
    # primes is the sanity cross-check in the sound direction
    rng = random.Random(107)
    elems = [_random_elem(rng) for _ in range(40)]
    for a in elems:
        for b in elems:
            same_eval = all(aq_eval(a, Prime(p)) == aq_eval(b, Prime(p)) for p in (2, 3, 5))
            if a == b:
                assert same_eval
            if not same_eval:
                assert a != b


def test_no_denominator_factor_divides_numerator():
    rng = random.Random(109)
    for _ in range(100):
        a = _random_elem(rng)
        for i in a.den:
            # canonical form: (q^i - 1) does not divide the cleared numerator
            assert a.num.divexact(LaurentPoly({i: 1, 0: -1})) is None


def test_cross_multiplied_equality():
    # (1 + q^-1) / (1 - q^-2) == 1 / (1 - q^-1) as ring elements
    lhs = (AqElem.one() + qp(-1)) * geo(2)
    rhs = geo(1)
    assert lhs == rhs
    assert not lhs == geo(2)


def test_pow_and_subtraction():
    assert (geo(1) - geo(1)).is_zero()
    assert geo(1) ** 0 == AqElem.one()
    assert geo(1) ** 2 == geo(1) * geo(1)
    with pytest.raises(ValueError):
        geo(1) ** -1


def test_rendering():
    assert AqElem.zero().render() == "0"
    assert AqElem.one().render() == "1"
    assert qp(-1).render() == "q^-1"
    assert geo(1).render() == "1 / (1-q^-1)"
    assert (qp(-1) * geo(1, 2)).render() == "q^-1 / (1-q^-1)^2"
    assert AqElem.from_rational(Fraction(3, 4)).render() == "3/4"


def test_as_rational():
    assert AqElem.from_rational(Fraction(5, 2)).as_rational() == Fraction(5, 2)
    assert AqElem.zero().as_rational() == 0
    assert qp(-1).as_rational() is None
    assert geo(1).as_rational() is None


def test_int_coercion():
    assert geo(1) * 2 == geo(1) + geo(1)
    assert 1 + qp(-1) == AqElem.one() + qp(-1)
    assert (3 - qp(0, 3)).is_zero()


def _q_minus_one(i):
    return LaurentPoly({i: 1, 0: -1})  # q^i - 1


def test_canonicalization_runs_no_long_division(monkeypatch):
    # a dependent-bound sum shaped like the benchmark's cell sums: outer
    # cells of modulus 2 and 4, denominators (1-q^-i) up to i = 20 on the
    # way; canonicalisation cancels them by running sums, without calling
    # divexact or any polydiv
    calls = []

    def counting(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(LaurentPoly, "divexact", counting("divexact", LaurentPoly.divexact))
    for name, module in list(sys.modules.items()):
        if name.startswith("padicint"):
            for attr, value in list(vars(module).items()):
                if value is polys.polydiv:
                    monkeypatch.setattr(module, attr, counting("polydiv", value))
    g1_cells = [(0, 14, 2, 1), (0, 15, 4, 0)]  # lower < g1 < upper, g1 = res mod mod
    inner = {
        "lower": {"var": "g1", "a": 2, "k": 0, "n": 1, "delta": -2},
        "upper": {"var": "g1", "a": 3, "k": 0, "n": 1, "delta": 2},
        "mod": 1,
        "res": 0,
    }
    domain = Domain.from_json({"p": 3, "vars": [
        {"name": "g1", "sort": "Gamma",
         "region": [dict(zip(("lower", "upper", "mod", "res"), c)) for c in g1_cells]},
        {"name": "g2", "sort": "Gamma", "region": [inner]},
    ]})
    f = parse_integrand(
        "2*q^(-2*lin(1,0,1,0;g1) - lin(1,0,1,0;g2))*lin(1,0,1,0;g2)"
        " - 3*q^(-lin(1,0,1,0;g1) + 1)*lin(2,0,1,1;g1)"
    )
    result = integrate(f, domain)
    assert calls == []
    q = Fraction(3)
    lattice = sum(
        2 * q ** (-2 * g1 - g2) * g2 - 3 * q ** (1 - g1) * (2 * g1 + 1)
        for lower, upper, mod, res in g1_cells
        for g1 in range(lower + 1, upper) if g1 % mod == res
        for g2 in range(2 * g1 - 1, 3 * g1 + 2)
    )
    assert result.eval_at(3) == lattice


# denominators and multiplied-in factors up to index 24, the sizes the
# benchmark's cell sums reach
indices = st.dictionaries(st.integers(1, 24), st.integers(1, 2), max_size=3)
# the elements of selfcheck.random_built_elem, drawn by seed
built_elems = st.integers(0, 2**32).map(lambda seed: random_built_elem(random.Random(seed))[0])


@settings(max_examples=200, deadline=None)
@given(built_elems, built_elems, st.integers(-8, 8), st.integers(-3, 3))
def test_equality_is_a_zero_difference(x, y, e, z):
    # the unreduced product equals the canonical one in another form; the
    # product shifted by z q^e equals it only when z = 0
    unreduced, product = x._times(y), x * y
    assert unreduced == product and product == unreduced
    shifted = product + AqElem.q_power(e, z)
    for a, b in ((unreduced, shifted), (x, y), (x, unreduced)):
        assert (a == b) == (a - b).is_zero() == (b == a)
    assert (unreduced == shifted) == (z == 0)


def test_canonical_form_at_large_indices():
    _, ok, detail = check_aq_cancellation()
    assert ok, detail


def _assert_normalized(poly):
    # integral coefficients are ints: the invariant that keeps the
    # cancel and multiply-in kernels in int arithmetic
    for c in poly.coeffs.values():
        assert c.__class__ is int or (c.__class__ is Fraction and c.denominator != 1)


# int and Fraction coefficients, integral Fractions among them
mixed = st.dictionaries(
    st.integers(-30, 30),
    st.one_of(st.integers(-9, 9), st.fractions(-9, 9, max_denominator=4)).filter(bool),
    min_size=1,
    max_size=6,
).map(LaurentPoly)


@settings(max_examples=200, deadline=None)
@given(mixed, indices, st.data())
def test_cancel_agrees_with_long_division(m, mult, data):
    num = _times_factors(m, mult)
    i = data.draw(st.sampled_from(sorted(mult)) if mult and data.draw(st.booleans()) else st.integers(1, 24))
    quot = num.divexact(_q_minus_one(i))
    got = _cancel(i, num)
    if quot is None:
        assert got is None
    else:
        assert got == quot.shift(i)
        _assert_normalized(got)


@settings(max_examples=200, deadline=None)
@given(mixed, st.integers(1, 24))
def test_cancel_inverts_the_factor(num, i):
    assert _cancel(i, num * LaurentPoly({0: 1, -i: -1})) == num


@settings(max_examples=200, deadline=None)
@given(mixed, indices, st.data())
def test_times_den_is_the_generic_product(poly, den, data):
    have = {i: data.draw(st.integers(0, e)) for i, e in den.items() if data.draw(st.booleans())}
    expect = poly
    for i, e in den.items():
        for _ in range(e - have.get(i, 0)):
            expect = expect * LaurentPoly({0: 1, -i: -1})
    got = _times_den(poly, den, have)
    assert got == expect
    _assert_normalized(got)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32))
def test_sum_and_difference_are_the_direct_values(seed):
    # + and - against the values random_built_elem computes directly, not
    # against ==, which shares the ring's sum; an unreduced product is an
    # operand too
    rng = random.Random(seed)
    (x, xv, *_), (y, yv, *_), (u, uv, *_) = (random_built_elem(rng) for _ in range(3))
    operands = [(x, xv), (y, yv), (x._times(u), {p: xv[p] * uv[p] for p in xv})]
    for a, av in operands:
        for b, bv in operands:
            total, difference = a + b, a - b
            for p in (2, 3, 5):
                assert total.eval_at(p) == av[p] + bv[p]
                assert difference.eval_at(p) == av[p] - bv[p]
        assert a == AqElem(a.num, dict(a.den))
        assert (a + AqElem.zero()).render() == a.render()


@settings(max_examples=60, deadline=None)
@given(built_elems, built_elems)
def test_stored_coefficients_stay_normalized(x, y):
    for elem in (x, y, x + y, x * y, x - y, AqElem(x.num * y.num, x.den)):
        _assert_normalized(elem.num)


@pytest.mark.parametrize("den", [{1: -1}, {2: 1.5}, {2: Fraction(3, 2)}])
def test_bad_denominator_multiplicity_is_rejected(den):
    (i,) = den
    with pytest.raises(ValueError, match=rf"\(1-q\^-{i}\) has multiplicity"):
        AqElem(LaurentPoly.const(1), den)


def test_zero_denominator_multiplicity_is_dropped():
    assert AqElem(LaurentPoly.const(1), {1: 0, 2: 1}).den == {2: 1}
    assert AqElem(LaurentPoly.const(3), {4: 0}).as_rational() == 3


def test_non_integer_denominator_index_is_rejected():
    # int(1.5) would read 1 / (1-q^-1.5) as 1 / (1-q^-1), which is 2 at p = 2
    with pytest.raises(ValueError, match=r"index 1\.5"):
        AqElem(LaurentPoly.const(1), {1.5: 1})
    with pytest.raises(ValueError, match=r"index 0"):
        AqElem(LaurentPoly.const(1), {0: 1})
    assert AqElem(LaurentPoly.const(1), {Fraction(2): 1}) == AqElem.geom(2)


def test_non_integer_exponent_is_rejected():
    # int(0.5) would merge q^0.5 into q^0 and drop the constant term
    with pytest.raises(ValueError, match=r"exponent 0\.5"):
        LaurentPoly({0: 1, 0.5: 2})
    assert LaurentPoly({Fraction(2): 3}) == LaurentPoly.monomial(2, 3)


def _eval_per_term(elem, p):
    value = sum((Fraction(c) * Fraction(p) ** e for e, c in elem.num.coeffs.items()), Fraction(0))
    for i, e in elem.den.items():
        value /= (1 - Fraction(1, p**i)) ** e
    return value


@settings(max_examples=300, deadline=None)
@given(mixed | st.just(LaurentPoly()), indices, st.sampled_from([2, 3, 5, 7]))
def test_eval_at_is_the_per_term_value(num, den, p):
    elem = AqElem(num, den)
    got = elem.eval_at(p)
    assert got.__class__ is Fraction
    assert got == _eval_per_term(elem, p)
    assert AqElem(num, den).eval_at(Prime(p)) == got


def _stored(elem):
    """The stored form, coefficient types and denominator order included."""
    return {e: (c.__class__, c) for e, c in elem.num.coeffs.items()}, list(elem.den.items())


units = st.tuples(
    st.integers(-30, 30),
    st.one_of(st.integers(-9, 9), st.fractions(-9, 9, max_denominator=4)).filter(bool),
)


@settings(max_examples=300, deadline=None)
@given(
    (mixed | st.just(LaurentPoly())).flatmap(lambda num: indices.map(lambda den: AqElem(num, den)))
    | built_elems,
    units,
)
def test_unit_products_and_negation_keep_the_canonical_form(x, unit):
    # x is canonical and c q^k a unit, so the skipped canonicalisation
    # would have found nothing to cancel
    k, c = unit
    u = qp(k, c)
    products = [
        (x * u, x.num * u.num),
        (u * x, u.num * x.num),
        (x * c, x.num * LaurentPoly.const(c)),
        (-x, -x.num),
    ]
    for got, num in products:
        assert _stored(got) == _stored(AqElem(num, x.den))
        for p in (2, 3):
            assert got.eval_at(p) == AqElem(num, x.den).eval_at(p)
    assert (-(-x)) == x and _stored(-(-x)) == _stored(x)


def _items(poly):
    """The stored coefficients in order, with their types."""
    return [(e, c.__class__, c) for e, c in poly.coeffs.items()]


@settings(max_examples=300, deadline=None)
@given(mixed, units, st.integers(1, 24))
def test_unchecked_numerators_are_the_normal_form(num, unit, i):
    # negation, the unit product and the cancel quotient skip LaurentPoly's
    # normalisation; each stores what LaurentPoly(coeffs) would
    k, c = unit
    assert _items(-num) == _items(LaurentPoly({e: -v for e, v in num.coeffs.items()}))
    raw = {e + k: v * c for e, v in num.coeffs.items()}
    assert _items(_nonzero(raw)) == _items(LaurentPoly(raw))
    x = AqElem._reduced(num, {})
    assert _items((x * qp(k, c)).num) == _items(LaurentPoly(raw))
    quot = _cancel(i, num * LaurentPoly({0: 1, -i: -1}))
    expect = {e: v for e, v in quot.coeffs.items()}
    assert _items(quot) == _items(LaurentPoly(expect))
    assert sorted(_items(quot)) == sorted(_items(num))
