from fractions import Fraction

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
    finite_differences,
    poly_eval,
    poly_mul,
    poly_shift,
    polydiv,
    signed_join,
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
    f = parse_integrand("-2*q^(-ord(x1))*ord(x1) + ord(x1) - 1")
    assert render_constructible(f) == "-2*q^(-ord(x1))*ord(x1) + ord(x1) - 1"
