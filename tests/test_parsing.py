from fractions import Fraction

import pytest

from padicint import ParseError, Polynomial, Prime
from padicint.parsing import parse_integrand, parse_polynomial, render_constructible

P2 = Prime(2)


def test_polynomial_examples():
    p = parse_polynomial("x1^2 + x2^2")
    assert p.nvars == 2
    assert p == Polynomial(2, {(2, 0): 1, (0, 2): 1})
    assert parse_polynomial("x1*x2") == Polynomial(2, {(1, 1): 1})


def test_polynomial_error_positions():
    with pytest.raises(ParseError) as err:
        parse_polynomial("x1^")
    assert err.value.line == 1
    assert err.value.column == 4
    with pytest.raises(ParseError) as err:
        parse_polynomial("x1 + y")
    assert err.value.column == 6
    with pytest.raises(ParseError) as err:
        parse_polynomial("(x1 + 2")
    assert err.value.column == 8
    # an empty ord() argument is reported at its closing parenthesis
    with pytest.raises(ParseError) as err:
        parse_integrand("q^(1)*ord()")
    assert (err.value.line, err.value.column) == (1, 11)


def test_polynomial_grammar():
    p = parse_polynomial("2*x1^3 - x1 + 5")
    assert p == Polynomial(1, {(3,): 2, (1,): -1, (0,): 5})
    p = parse_polynomial("-(x1 - 3)*(x1 + 3)")
    assert p == Polynomial(1, {(2,): -1, (0,): 9})
    p = parse_polynomial("7")
    assert p.nvars == 0 and p.eval([]) == 7


def test_polynomial_render_round_trip():
    for text in ["x1^2 + x2^2", "x1*x2", "2*x1^3 - x1 + 5", "x1^2 - x2^2"]:
        p = parse_polynomial(text)
        assert parse_polynomial(p.render()) == p


def test_integrand_examples():
    f = parse_integrand("ord(x1) * q^(-ord(x1))")
    assert f.eval({"x1": Fraction(4)}, P2) == Fraction(1, 2)
    g = parse_integrand("q^(0)")
    assert g.eval({}, P2) == 1
    h = parse_integrand("ord(x1*x2)")
    assert h.eval({"x1": Fraction(2), "x2": Fraction(6)}, P2) == 2


def test_integrand_grammar():
    f = parse_integrand("3*lin(2,1,3,5;g1) - q^(2) + 1")
    assert f.eval({"g1": 7}, P2) == 3 * 9 - 4 + 1
    f = parse_integrand("(1 + ord(x1))^2")
    assert f.eval({"x1": Fraction(4)}, P2) == 9
    f = parse_integrand("q^(ord(x1) - 2*ord(x2) + 3)")
    assert f.eval({"x1": Fraction(4), "x2": Fraction(2)}, P2) == Fraction(2**3)
    f = parse_integrand("-q^(-ord(x1))")
    assert f.eval({"x1": Fraction(2)}, P2) == Fraction(-1, 2)


def test_integrand_sorts():
    f = parse_integrand("lin(1,0,1,0;g1) * ord(x1)")
    assert f.sorts == {"g1": "Gamma", "x1": "K"}


def test_integrand_errors():
    with pytest.raises(ParseError):
        parse_integrand("q^ord(x1)")  # exponent must be parenthesized
    with pytest.raises(ParseError):
        parse_integrand("lin(1,0,1,0;x1)")  # field variable in a prepared form
    with pytest.raises(ParseError):
        parse_integrand("ord(g1)")  # value-group variable under ord
    with pytest.raises(ParseError):
        parse_integrand("foo(x1)")
    with pytest.raises(ParseError):
        parse_integrand("lin(1,0,0,0;g1)")  # n must be >= 1
    with pytest.raises(ParseError):
        parse_integrand("1 + ")


def test_round_trip_is_identity_on_canonical_forms():
    texts = [
        "ord(x1) * q^(-ord(x1))",
        "q^(-2*ord(x1)) + 3*lin(2,1,3,5;g1) - 7",
        "q^(ord(x1) - 2*ord(x2) + 3)",
        "1 - ord(x1)*ord(x1)",
        "q^(lin(1,0,2,-1;g2))",
        "5",
    ]
    for text in texts:
        once = parse_integrand(text)
        rendered = render_constructible(once)
        again = parse_integrand(rendered)
        assert once == again, (text, rendered)
        assert render_constructible(again) == rendered


def test_multiline_error_position():
    with pytest.raises(ParseError) as err:
        parse_polynomial("x1 +\n x2 + $")
    assert err.value.line == 2
    assert err.value.column == 7
    # EOF after a final newline sits at the start of the empty last line
    with pytest.raises(ParseError) as err:
        parse_polynomial("x1 +\n")
    assert (err.value.line, err.value.column) == (2, 1)
