"""The integer kernel behind ConstructibleExpr.eval and the oracle, against a
direct evaluation written here.

direct_value reads each term's affine forms leaf by leaf in Fraction
arithmetic, every leaf whatever its coefficient, and evaluates the
coefficient from its numerator and (1 - q^-i) factors; it shares nothing
with the package's evaluator.  The oracle on the unit ball
is checked against it class by class: every class mod p^depth is inside
the region, so the value is the sum of f at the defined representatives
over p^(n depth), and the skipped classes are the undefined ones.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicint import (
    AqElem,
    ConstructibleExpr,
    Domain,
    OrdExpr,
    Polynomial,
    PreparedLinear,
    Prime,
    Term,
    UNIT_BALL,
    UndefinedAtPoint,
    brute_force_integrate,
    integrate,
)
from padicint.aqring import LaurentPoly
from padicint.integrate import LinExpr
from padicint.parsing import parse_integrand

K = "K"
NAMES = ("x1", "x2")


class Undefined(Exception):
    pass


def direct_ord(value: Fraction, p: int) -> int:
    if value == 0:
        raise Undefined
    v, num, den = 0, value.numerator, value.denominator
    while num % p == 0:
        num, v = num // p, v + 1
    while den % p == 0:
        den, v = den // p, v - 1
    return v


def direct_int(form, point: dict, p: int) -> int:
    c0, lin = form
    return c0 + sum(c * direct_leaf(leaf, point, p) for leaf, c in lin.items())


def direct_leaf(e, point: dict, p: int) -> int:
    if isinstance(e, LinExpr):
        f = e.form
        assert (point[e.var] - f.k) % f.n == 0
        return f.a * ((point[e.var] - f.k) // f.n) + f.delta
    assert isinstance(e, OrdExpr)
    total = Fraction(0)
    for exps, c in e.poly.terms.items():
        for name, k in zip(e.vars, exps):
            c *= Fraction(point[name]) ** k
        total += c
    return direct_ord(total, p)


def direct_coeff(aq: AqElem, p: int) -> Fraction:
    value = sum((Fraction(c) * Fraction(p) ** e for e, c in aq.num.coeffs.items()), Fraction(0))
    for i, mult in aq.den.items():
        value /= (1 - Fraction(1, p**i)) ** mult
    return value


def direct_value(f: ConstructibleExpr, point: dict, p: int) -> Fraction:
    total = Fraction(0)
    for term in f.terms:
        if term.coeff.is_zero():
            continue
        value = direct_coeff(term.coeff, p) * Fraction(p) ** direct_int(term.q, point, p)
        for z in term.factors:
            value *= direct_int(z, point, p)
        total += value
    return total


# -- strategies -------------------------------------------------------------------


@st.composite
def ord_atoms(draw, names=NAMES):
    """ord of x - a, (x - a)^2, a product of two variables, x1 +- x2 - a, or
    a constant; the variable list may name variables the polynomial leaves
    out."""
    shape = draw(st.sampled_from(("shift", "square", "product", "sum", "unit")))
    i = draw(st.integers(0, 1))
    a = draw(st.integers(-4, 9))
    x = Polynomial.variable(i, 2)
    if shape == "shift":
        poly = x - Polynomial.constant(a, 2)
    elif shape == "square":
        poly = (x - Polynomial.constant(a, 2)) ** 2
    elif shape == "product":
        poly = Polynomial.variable(0, 2) * Polynomial.variable(1, 2) ** draw(st.integers(1, 2))
    elif shape == "sum":
        sign = draw(st.sampled_from((1, -1)))
        poly = Polynomial(2, {(1, 0): 1, (0, 1): sign, (0, 0): -a})
    else:
        poly = Polynomial.constant(draw(st.sampled_from((1, 2, 3, 6, -5))), 2)
    return OrdExpr(poly, names)


@st.composite
def forms(draw, atoms):
    """An affine form (c0, {leaf: c}) summed from up to four (leaf, c)
    pairs over a pool of one or two leaves, so a leaf often recurs, and a
    coefficient that is 0 or cancels keeps its key."""
    pool = draw(st.lists(atoms, min_size=1, max_size=2))
    c0, lin = draw(st.integers(-3, 3)), {}
    for _ in range(draw(st.integers(0, 4))):
        leaf = draw(st.sampled_from(pool))
        lin[leaf] = lin.get(leaf, 0) + draw(st.integers(-3, 3))
    return c0, lin


coefficients = st.one_of(
    st.just(AqElem.zero()),
    st.builds(
        lambda num, den: AqElem(LaurentPoly(num), den),
        st.dictionaries(st.integers(-2, 2), st.fractions(-5, 5, max_denominator=4), min_size=1, max_size=3),
        st.dictionaries(st.integers(1, 3), st.integers(0, 2), max_size=2),
    ),
)


def integrands(atoms):
    terms = st.builds(Term, coefficients, forms(atoms), st.lists(forms(atoms), max_size=2))
    return st.builds(ConstructibleExpr, st.lists(terms, min_size=1, max_size=3))


lin_atoms = st.builds(
    lambda a, delta: LinExpr(PreparedLinear(a, 0, 1, delta), "g1"),
    st.integers(-2, 2),
    st.integers(-2, 2),
)


@settings(max_examples=300, deadline=None)
@given(
    integrands(st.one_of(ord_atoms(), lin_atoms)),
    st.sampled_from((2, 3, 5)),
    st.lists(st.fractions(-20, 20, max_denominator=6), min_size=2, max_size=2),
    st.integers(-5, 5),
)
def test_eval_equals_direct_evaluation(f, p, xs, g1):
    point = {"x1": xs[0], "x2": xs[1], "g1": g1}
    try:
        expected = direct_value(f, point, p)
    except Undefined:
        with pytest.raises(UndefinedAtPoint):
            f.eval(point, Prime(p))
        return
    assert f.eval(point, Prime(p)) == expected


@settings(max_examples=40, deadline=None)
@given(integrands(ord_atoms()), st.sampled_from((2, 3)), st.integers(1, 3))
def test_oracle_sums_the_direct_values_on_the_unit_ball(f, p, depth):
    n = 2
    if p == 3:
        depth = min(depth, 2)
    domain = Domain([(name, K, UNIT_BALL) for name in NAMES], Prime(p))
    result = brute_force_integrate(f, domain, depth)
    total, undefined = Fraction(0), 0
    for residues in itertools.product(range(p**depth), repeat=n):
        try:
            total += direct_value(f, dict(zip(NAMES, residues)), p)
        except Undefined:
            undefined += 1
    scale = Fraction(1, p ** (n * depth))
    assert result.value == total * scale
    assert (result.skipped, result.skipped_measure) == (undefined, undefined * scale)


def test_vanishing_argument_is_undefined_and_skipped():
    f = parse_integrand("3*q^(-2*ord(x1 - 5))*ord(x1 - 5) + 7")
    with pytest.raises(UndefinedAtPoint):
        f.eval({"x1": Fraction(5)}, Prime(3))
    assert f.eval({"x1": Fraction(14)}, Prime(3)) == 3 * Fraction(1, 81) * 2 + 7
    r = brute_force_integrate(f, Domain([("x1", K, UNIT_BALL)], Prime(3)), 3, growth=(10, -2, 1))
    assert (r.skipped, r.skipped_measure) == (1, Fraction(1, 27))


def test_zero_polynomial_argument_is_named():
    f = parse_integrand("q^(-ord(0*x1))")
    domain = Domain([("x1", K, UNIT_BALL)], Prime(3))
    with pytest.raises(UndefinedAtPoint, match="zero polynomial"):
        integrate(f, domain)
    # the oracle has no defined class to sum
    r = brute_force_integrate(f, domain, 2)
    assert (r.value, r.skipped) == (0, 9)
    # a constant argument written with a variable is evaluated, not refused
    assert integrate(parse_integrand("q^(-ord(3 + 0*x1))"), domain).eval_at(Prime(3)) == Fraction(1, 3)
