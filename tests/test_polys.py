from fractions import Fraction
from operator import add, mul, sub

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from padicint.aqring import LaurentPoly
from padicint.kcells import KCell
from padicint.padic import AngularResidue, Prime
from padicint.parsing import parse_integrand, render_constructible
from padicint.poincare import RationalFunctionT
from padicint.polys import (
    Polynomial,
    binom_int,
    difference_polys,
    eval_terms,
    finite_differences,
    poly_eval,
    poly_mul,
    poly_shift,
    polydiv,
    render_powers,
    signed_join,
    taylor_terms,
    trim,
)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)
nonzero = rationals.filter(lambda r: r != 0)
polys = st.lists(rationals, min_size=1, max_size=6)
# nonzero leading coefficient, so the degree is len - 1
exact_polys = st.tuples(st.lists(rationals, max_size=5), nonzero).map(lambda t: t[0] + [t[1]])
points = st.integers(-6, 6).map(Fraction) | rationals


@settings(max_examples=60)
@given(polys, polys, points)
def test_poly_mul_is_pointwise_product(a, b, x):
    assert poly_eval(poly_mul(a, b), x) == poly_eval(a, x) * poly_eval(b, x)


@settings(max_examples=60)
@given(polys, rationals, points)
def test_poly_shift_is_translation(a, c, x):
    shifted = poly_shift(a, c)
    assert poly_eval(shifted, x) == poly_eval(a, x + c)
    assert shifted == trim(shifted[:])


@settings(max_examples=60)
@given(exact_polys, exact_polys)
def test_polydiv_inverts_poly_mul(a, b):
    quot, rem = polydiv(poly_mul(a, b), b)
    assert quot == a
    assert all(r == 0 for r in rem)


@settings(max_examples=60)
@given(exact_polys, points)
def test_difference_polys_are_forward_differences(a, x):
    diffs = difference_polys(a)
    assert len(diffs) == len(a) and diffs[0] == a and len(diffs[-1]) == 1
    for d, nxt in zip(diffs, diffs[1:]):
        assert poly_eval(nxt, x) == poly_eval(d, x + 1) - poly_eval(d, x)
    values = finite_differences(a)
    assert values == [poly_eval(d, 0) for d in diffs]
    # the values are the coefficients of a in the binomial basis C(s, j)
    for s in range(-3, 4):
        assert poly_eval(a, s) == sum(v * binom_int(s, j) for j, v in enumerate(values))


@settings(max_examples=60)
@given(nonzero)
def test_rendered_rationals_parse_back(r):
    assert Fraction(LaurentPoly.const(r).render()) == r
    assert Fraction(Polynomial.constant(r).render()) == r
    cell = KCell(r, -1, None, 1, 0, 1, AngularResidue(1, 1), Prime(5))
    assert KCell.from_json(cell.to_json()) == cell


def test_signed_join():
    assert signed_join([]) == "0"
    assert signed_join([(True, "a"), (False, "b"), (True, "c")]) == "-a + b - c"


def test_renderers_share_the_signed_term_layout():
    assert LaurentPoly({2: 1, 0: Fraction(-1, 2), -3: -3}).render() == "q^2 - 1/2 - 3*q^-3"
    x1, x2 = Polynomial.variable(0, 2), Polynomial.variable(1, 2)
    assert (x1**2 - x1 * x2 * Polynomial.constant(3, 2) + Polynomial.constant(-2, 2)).render() == (
        "x1^2 - 3*x1*x2 - 2"
    )
    rational = RationalFunctionT([Fraction(-1), Fraction(0), Fraction(2, 3)], [Fraction(1)], Prime(3))
    assert rational.render_num() == "-1 + 2/3*T^2"
    assert render_powers([(5, -2), (2, 0), (-1, Fraction(1, 2))], "T") == "-2*T^5 + 1/2*T^-1"
    f = parse_integrand("-2*q^(-ord(x1))*ord(x1) + ord(x1) - 1")
    assert render_constructible(f) == "-2*q^(-ord(x1))*ord(x1) + ord(x1) - 1"


@st.composite
def sparse_divisions(draw):
    """(a, b, r) with b shaped q^i - 1 or 1 - c*T^N (zeros inside) and
    deg r < deg b."""
    n = draw(st.integers(1, 12))
    if draw(st.booleans()):
        b = [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]
    else:
        b = [Fraction(1)] + [Fraction(0)] * (n - 1) + [-draw(nonzero)]
    return draw(exact_polys), b, draw(st.lists(rationals, max_size=n))


@settings(max_examples=60)
@given(sparse_divisions())
def test_polydiv_by_sparse_divisors(case):
    a, b, r = case
    num = poly_mul(a, b)
    for j, c in enumerate(r):
        num[j] += c
    quot, rem = polydiv(num, b)
    assert quot == a
    assert rem == r + [0] * (len(num) - len(r))


def test_partial_derivative():
    f = Polynomial(2, {(2, 1): 3, (1, 0): 1, (0, 0): -5})
    assert f.derivative(0) == Polynomial(2, {(1, 1): 6, (0, 0): 1})
    assert f.derivative(1) == Polynomial(2, {(2, 0): 3})
    assert Polynomial.constant(7, 2).derivative(1).is_zero()
    # d/dx x^p = p x^(p-1) vanishes mod p
    assert (Polynomial.variable(0, 1) ** 5).derivative(0) == Polynomial(1, {(4,): 5})


def _exact(coeffs, kinds):
    return all(c.__class__ in kinds for c in coeffs)


int_polys = st.lists(st.integers(-50, 50), min_size=1, max_size=6)


@settings(max_examples=60)
@given(int_polys, int_polys, st.integers(-50, 50))
def test_dense_helpers_keep_int_input_int(a, b, c):
    assert _exact(poly_mul(a, b), {int})
    assert _exact(poly_shift(a, c), {int})
    for d in difference_polys(a):
        assert _exact(d, {int})
    assert _exact(finite_differences(a), {int})
    assert _exact([poly_eval(a, c)], {int})
    assert poly_eval(poly_mul(a, b), 3) == poly_eval(a, 3) * poly_eval(b, 3)
    assert poly_eval(poly_shift(a, c), 2) == poly_eval(a, 2 + c)


@settings(max_examples=60)
@given(polys, polys, rationals)
def test_dense_helpers_keep_fraction_input_exact(a, b, c):
    assert _exact(poly_mul(a, b), {int, Fraction})
    assert _exact(poly_shift(a, c), {int, Fraction})
    for d in difference_polys(a):
        assert _exact(d, {int, Fraction})


@settings(max_examples=60)
@given(int_polys.filter(lambda a: a[-1] != 0), int_polys.filter(lambda b: b[-1] != 0))
def test_polydiv_is_exact_on_int_lists(a, b):
    num = [int(c) for c in poly_mul(a, b)]  # int lists whatever poly_mul returns
    quot, rem = polydiv(num, b)
    assert quot == a
    assert all(r == 0 for r in rem)
    assert not any(isinstance(c, float) for c in quot + rem)


def test_polydiv_int_quotient_is_a_fraction_not_a_float():
    quot, rem = polydiv([1, 1], [0, 2])  # x + 1 = (1/2)(2x) + 1
    assert quot == [Fraction(1, 2)] and rem == [1, 0]
    assert not any(isinstance(c, float) for c in quot + rem)


def test_binom_int_is_the_falling_factorial_over_k_factorial():
    for s in range(-20, 21):
        for k in range(9):
            falling = 1
            for i in range(k):
                falling *= s - i
            fact = 1
            for i in range(2, k + 1):
                fact *= i
            got = binom_int(s, k)
            assert got.__class__ is int
            assert got == Fraction(falling, fact)


def test_polynomial_refuses_non_integral_exponents():
    for terms, bad in (({(0.5,): 1}, "0.5"), ({(1.7,): 1, (1,): 2}, "1.7")):
        with pytest.raises(ValueError, match=f"exponent {bad} is not an integer"):
            Polynomial(1, terms)
    # integral values of another type are still exponents, stored as ints
    p = Polynomial(2, {(Fraction(2), 1.0): 3})
    assert p.terms == {(2, 1): 3}
    assert all(e.__class__ is int for exps in p.terms for e in exps)
    assert (p + Polynomial(2, {(2, 1): 1})).render() == "4*x1^2*x2"


sparse_terms = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), st.integers(-9, 9) | rationals, max_size=4
)


def _fraction_terms(a: dict, b: dict, op: str) -> dict:
    """The nonzero terms of a op b computed in Fractions."""
    out: dict = {}
    if op == "*":
        for (i1, j1), c1 in a.items():
            for (i2, j2), c2 in b.items():
                e = (i1 + i2, j1 + j2)
                out[e] = out.get(e, 0) + Fraction(c1) * Fraction(c2)
    else:
        for sign, terms in ((1, a), (1 if op == "+" else -1, b)):
            for e, c in terms.items():
                out[e] = out.get(e, 0) + sign * Fraction(c)
    return {e: c for e, c in out.items() if c}


@settings(max_examples=100)
@given(sparse_terms, sparse_terms)
def test_polynomial_holds_integral_coefficients_as_ints(a, b):
    # the constructor, + - and * hold an integral coefficient as an int and
    # any other as a Fraction; each result equals, and hashes as, the same
    # polynomial holding every coefficient as a Fraction
    f, g = Polynomial(2, a), Polynomial(2, b)
    results = [(f, _fraction_terms(a, {}, "+")), (-f, _fraction_terms({}, a, "-"))]
    results += [(op(f, g), _fraction_terms(a, b, name)) for name, op in (("+", add), ("-", sub), ("*", mul))]
    for p, fractions in results:
        assert all((c.__class__ is int) == (c.denominator == 1) for c in p.terms.values())
        held_as_fractions = Polynomial._reduced(2, fractions)
        assert p == held_as_fractions and hash(p) == hash(held_as_fractions)
    assert Polynomial.constant(Fraction(6, 3), 1).terms == {(0,): 2}
    assert Polynomial.constant(Fraction(6, 3), 1).terms[(0,)].__class__ is int


def test_a_variable_index_is_checked():
    assert Polynomial.variable(1, 3) == Polynomial(3, {(0, 1, 0): 1})
    for index in (-1, 3):
        with pytest.raises(ValueError, match=f"no variable of index {index} among 3"):
            Polynomial.variable(index, 3)


int_terms = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)), st.integers(-30, 30), max_size=6
)


@settings(max_examples=80)
@given(int_terms, st.lists(st.integers(-40, 40), min_size=3, max_size=3), st.integers(1, 10**6))
def test_integer_evaluators_agree_with_eval(terms, values, mod):
    f = Polynomial(3, terms)
    assert f.eval_int(values) == f.eval(values)
    assert f.eval_mod(values, mod) == f.eval(values) % mod
    assert eval_terms(f.int_terms(), values) == f.eval(values)
    # int_terms lists the nonzero exponents only, as (index, exponent)
    assert all(e > 0 for _, monomial in f.int_terms() for _, e in monomial)


def test_integer_evaluators_refuse_fraction_coefficients():
    f = Polynomial(1, {(1,): Fraction(1, 2)})
    for evaluate in (lambda: f.eval_int([2]), lambda: f.eval_mod([2], 5), f.int_terms):
        with pytest.raises(ValueError, match="integer coefficients"):
            evaluate()


@settings(max_examples=100, deadline=None)
@given(
    st.dictionaries(st.tuples(*[st.integers(0, 3)] * 3), st.integers(-9, 9), max_size=5),
    st.lists(st.integers(-20, 20), min_size=3, max_size=3),
    st.lists(st.integers(-20, 20), min_size=3, max_size=3),
)
def test_taylor_terms_expand_a_shift(monomials, x, h):
    # g(x + h) = g(x) + sum_b c_b(x) h^b with integer c_b, over three variables
    terms = Polynomial(3, monomials).int_terms()
    expansion = eval_terms(terms, x)
    for b, cb in taylor_terms(terms).items():
        assert all(isinstance(c, int) for c, _ in cb)
        expansion += eval_terms(cb, x) * eval_terms([(1, b)], h)
    assert expansion == eval_terms(terms, [a + d for a, d in zip(x, h)])
