import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicint import AqElem, ConstructibleExpr, LinExpr, OrdExpr, ParseError, Polynomial, Prime, Term, identity_lin
from padicint.parsing import parse_integrand, parse_polynomial, render_constructible
from padicint.selfcheck import random_integrand_text, random_polynomial_text

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
    # the keys come in walk order: term by term, the q form, then the factors
    assert list(parse_integrand("ord(x1)*q^(lin(1,0,1,0;g1))").sorts) == ["g1", "x1"]
    # a factor raised to ^0 is the constant 1 and names no variable
    assert parse_integrand("ord(x3)^0*lin(1,0,1,0;g1)").sorts == {"g1": "Gamma"}
    ord_x3 = ConstructibleExpr.ord_factor(Polynomial(3, {(0, 0, 1): 1}), ("x1", "x2", "x3"))
    lin_g1 = ConstructibleExpr.factor((0, {identity_lin("g1"): 1}))
    assert (ord_x3**0 * lin_g1).sorts == {"g1": "Gamma"}


def test_a_variable_used_both_ways_is_refused():
    ord_x1 = (0, {OrdExpr(Polynomial(1, {(1,): 1}), ("x1",)): 1})
    lin_x1 = (0, {identity_lin("x1"): 1})
    clash = "x1 used both as field and value-group variable"
    with pytest.raises(ValueError, match=clash):
        ConstructibleExpr([Term(AqElem.one(), factors=[ord_x1, lin_x1])])
    f, g = ConstructibleExpr.factor(ord_x1), ConstructibleExpr.factor(lin_x1)
    with pytest.raises(ValueError, match=clash):
        f + g
    with pytest.raises(ValueError, match=clash):
        f * g



def test_a_sum_built_one_term_at_a_time_walks_each_leaf_once(monkeypatch):
    # + and scale carry the operands' sorts, so only the one-term operands
    # walk their leaves: N additions walk N leaves.  Walking every term of
    # the growing sum again walked about N^2 / 2 of them
    engine = sys.modules[ConstructibleExpr.__module__]
    walked = 0
    leaves = engine._leaves

    def spy(terms):
        nonlocal walked
        out = leaves(terms)
        walked += len(out)
        return out

    monkeypatch.setattr(engine, "_leaves", spy)
    half = AqElem.from_rational(Fraction(1, 2))
    counts = []
    for n in (50, 100, 200):
        walked = 0
        total = ConstructibleExpr.factor((0, {identity_lin("g1"): 1}))
        for i in range(1, n):
            x = OrdExpr(Polynomial.variable(0, 1), (f"x{i % 7 + 1}",))
            total = total + ConstructibleExpr.factor((i, {x: 1})).scale(half)
        counts.append(walked)
        monkeypatch.setattr(engine, "_leaves", leaves)
        assert list(total.sorts.items()) == list(ConstructibleExpr(total.terms).sorts.items())
        monkeypatch.setattr(engine, "_leaves", spy)
    assert counts == [50, 100, 200]

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
        "ord(x2^2 - x1 + 0*x3)",
    ]
    # an ord argument keeps an arity its polynomial does not mention
    assert render_constructible(parse_integrand("q^(-ord(x1 + x3^0))")) == "q^(-ord(x1 + 1 + 0*x3))"
    for text in texts:
        once = parse_integrand(text)
        rendered = render_constructible(once)
        again = parse_integrand(rendered)
        assert once == again, (text, rendered)
        assert render_constructible(again) == rendered


@pytest.mark.parametrize(
    "text, rendered",
    [
        # a repeated leaf is one key of the form
        ("q^(ord(x1) + ord(x1))", "q^(2*ord(x1))"),
        # a leaf whose coefficients cancel keeps its key at 0
        ("q^(ord(x1) - ord(x1) + 1)", "q^(0*ord(x1) + 1)"),
        # the q^ factors of a term merge into one exponent
        ("3*q^(ord(x1))*ord(x2)*q^(-1 - lin(1,0,1,0;g1))", "3*q^(ord(x1) - lin(1,0,1,0;g1) - 1)*ord(x2)"),
        ("q^(0)*q^(2 - 2)", "1"),
    ],
)
def test_canonical_render(text, rendered):
    assert render_constructible(parse_integrand(text)) == rendered
    assert parse_integrand(rendered) == parse_integrand(text)


def test_a_factor_that_is_not_one_leaf_parses_back_to_it():
    # the grammar folds a parenthesised integer sum into one factor form
    ox1 = OrdExpr(Polynomial(1, {(1,): 1}), ("x1",))
    for form, rendered in [
        ((1, {ox1: 2}), "(2*ord(x1) + 1)"),
        ((0, {ox1: -3}), "(-3*ord(x1))"),
        ((0, {ox1: 0}), "(0*ord(x1))"),
        ((-4, {ox1: 1, identity_lin("g1"): -1}), "(ord(x1) - lin(1,0,1,0;g1) - 4)"),
    ]:
        f = ConstructibleExpr.factor(form) * ConstructibleExpr.q_exponent((0, {ox1: -1}))
        assert render_constructible(f) == "q^(-ord(x1))*" + rendered
        again = parse_integrand(render_constructible(f))
        assert again == f and _stored(again) == _stored(f)


@pytest.mark.parametrize(
    "text, stored_as",
    [
        # an integer sum is one factor, however it is written
        ("(1 + ord(x1))^3", "(ord(x1) + 1)^3"),
        ("(2*(ord(x1) + 1) - (3))", "(2*ord(x1) + 2 - 3)"),
        ("((ord(x1) - lin(1,0,1,0;g1)))*2", "2*(ord(x1) - lin(1,0,1,0;g1))"),
        ("(ord(x1)^0 + ord(x2)*0)", "(0*ord(x2) + 1)"),
        # one that names no leaf is one integer
        ("(1 - 1)*ord(x1)", "0*ord(x1)"),
        ("(2^2 + ord(x1)^0)", "5"),
        # any other sum is its terms
        ("(q^(0) + ord(x1))*3", "3*q^(0) + 3*ord(x1)"),
        ("(ord(x1)*ord(x2) - 1)", "ord(x1)*ord(x2) - 1"),
        ("((1 + ord(x1))^2 + 1)", "(ord(x1) + 1)*(ord(x1) + 1) + 1"),
    ],
)
def test_a_parenthesised_integer_sum_is_one_factor(text, stored_as):
    assert _stored(parse_integrand(text)) == _stored(parse_integrand(stored_as))


def test_a_power_of_an_integer_sum_is_one_term():
    f = parse_integrand("(1+ord(x1))^14")
    assert len(f.terms) == 1 and len(f.terms[0].factors) == 14
    assert _stored(f) == _stored(parse_integrand("(ord(x1) + 1)^14"))
    assert f.eval({"x1": Fraction(4)}, P2) == 3**14


def test_render_round_trips_generator_draws():
    for seed in range(500):
        _, expr = random_integrand_text(random.Random(seed))
        rendered = render_constructible(expr)
        assert parse_integrand(rendered) == expr, (seed, rendered)
        assert render_constructible(parse_integrand(rendered)) == rendered, seed


def _leaves(expr):
    return [leaf for t in expr.terms for _, lin in (t.q, *t.factors) for leaf in lin]


def test_a_parse_shares_one_leaf_per_argument():
    f = parse_integrand("ord(x1)*q^(-ord(x1) + 2*lin(1,0,1,0;g1)) + lin(1,0,1,0;g1)*ord(x1)*q^(-ord( x1 ))")
    leaves = _leaves(f)
    ords = [leaf for leaf in leaves if isinstance(leaf, OrdExpr)]
    lins = [leaf for leaf in leaves if isinstance(leaf, LinExpr)]
    assert len(ords) == 4 and all(a is ords[0] for a in ords)
    assert len(lins) == 2 and lins[0] is lins[1]
    # equal polynomials written differently, with or without parentheses,
    # and equal lin(...) arguments written differently share one leaf
    for text in ("ord(x1 + 2)*ord(2 + x1)", "ord((x1 + 1)*x2)*ord(x1*x2 + x2)", "lin(1,0,1,0;g1)*lin(01,00,1,0;g1)"):
        leaves = _leaves(parse_integrand(text))
        assert len(leaves) == 2 and leaves[0] is leaves[1], text
    # an argument with parentheses is read to its own ')', whatever its
    # text up to the first ')' is
    first, again, square = _leaves(parse_integrand("ord(x1)*ord((x1))*ord((x1)^2)"))
    assert again is first and square.poly == first.poly * first.poly


@pytest.mark.parametrize(
    "text, same_as",
    [
        ("q^(ord(x1)*2)", "q^(2*ord(x1))"),
        ("q^((ord(x1) + 1)*3)", "q^(3*ord(x1) + 3)"),
        ("q^(2^2*lin(1,0,1,0;g1))", "q^(4*lin(1,0,1,0;g1))"),
        ("q^(-(ord(x1) + 1)*2)", "q^(-2*ord(x1) - 2)"),
        ("q^(ord(x1)^0 - 0*ord(x2))", "q^(1 - 0*ord(x2))"),
        ("q^((ord(x1) - 1)*(2 - 1))*ord(x1)", "q^(ord(x1) - 1)*ord(x1)"),
    ],
)
def test_an_exponent_is_any_integrand_affine_in_its_leaves(text, same_as):
    assert _stored(parse_integrand(text)) == _stored(parse_integrand(same_as))


def test_multiline_error_position():
    with pytest.raises(ParseError) as err:
        parse_polynomial("x1 +\n x2 + $")
    assert err.value.line == 2
    assert err.value.column == 7
    # EOF after a final newline sits at the start of the empty last line
    with pytest.raises(ParseError) as err:
        parse_polynomial("x1 +\n")
    assert (err.value.line, err.value.column) == (2, 1)


# Every ParseError raise site of both grammars, with its message, line and
# column.  Inside ord(...) an unbalanced argument is reported first, then
# the first name that is not a field variable, then any syntax error; in a
# polynomial text the first unknown name anywhere comes before a syntax
# error.
ERROR_CASES = [
    ("poly", "x1 + $", "unexpected character '$'", 1, 6),
    ("integrand", "ord(x1) # 2", "unexpected character '#'", 1, 9),
    ("poly", "x1^", "expected an exponent after '^'", 1, 4),
    ("poly", "x1^x2", "expected an exponent after '^'", 1, 4),
    ("integrand", "ord(x1)^", "expected an exponent after '^'", 1, 9),
    ("integrand", "ord(x1)^-1", "expected an exponent after '^'", 1, 9),
    ("integrand", "ord(x1^)", "expected an exponent after '^'", 1, 8),
    ("poly", "x1 + y", "unknown symbol 'y' (variables are x1, x2, ...)", 1, 6),
    ("poly", "x1 + + y", "unknown symbol 'y' (variables are x1, x2, ...)", 1, 8),
    ("poly", "x1 x2 + g1", "unknown symbol 'g1' (variables are x1, x2, ...)", 1, 9),
    ("integrand", "foo(x1)", "unknown symbol 'foo' (expected q, ord, lin, or an integer)", 1, 1),
    ("integrand", "x1", "unknown symbol 'x1' (expected q, ord, lin, or an integer)", 1, 1),
    ("integrand", "ord(g1)", "valuation arguments are polynomials in x1, x2, ...", 1, 5),
    ("integrand", "ord(x1 + + y)", "valuation arguments are polynomials in x1, x2, ...", 1, 12),
    ("integrand", "ord(x1 ord(x2))", "valuation arguments are polynomials in x1, x2, ...", 1, 8),
    ("integrand", "q^ord(x1)", "expected '('", 1, 3),
    ("integrand", "q(1)", "expected '^'", 1, 2),
    ("integrand", "q^(1", "expected ')'", 1, 5),
    ("integrand", "q^(1) + q^()", "expected an integrand factor", 1, 12),
    # an exponent is affine: each of its terms is an integer times at most
    # one ord or lin factor, reported at the exponent's first token
    ("integrand", "q^(ord(x1)*ord(x2))", "an exponent term multiplies two ord(...) or lin(...) factors", 1, 4),
    ("integrand", "2*q^(1 + ord(x1)^2)", "an exponent term multiplies two ord(...) or lin(...) factors", 1, 6),
    ("integrand", "q^(ord(x1)^2)", "an exponent term multiplies two ord(...) or lin(...) factors", 1, 4),
    ("integrand", "q^(q^(1))", "an exponent cannot hold q^(...)", 1, 4),
    ("integrand", "q^(1 - 2*q^(0)*ord(x1))", "an exponent cannot hold q^(...)", 1, 4),
    ("integrand", "ord(x1", "unbalanced parentheses in ord(...)", 1, 7),
    ("integrand", "2*ord(x1 + (x2)", "unbalanced parentheses in ord(...)", 1, 16),
    ("integrand", "ord(y + +", "unbalanced parentheses in ord(...)", 1, 10),
    ("poly", "(x1 + 2", "expected ')'", 1, 8),
    ("integrand", "ord(x1 x2)", "expected ')'", 1, 8),
    # a field variable's index is at most MAX_INDEX = 64
    ("poly", "x1 + x65", "variable 'x65' has an index above 64", 1, 6),
    ("poly", "x100000^2 + y", "variable 'x100000' has an index above 64", 1, 1),
    ("integrand", "ord(x100000 + 1)", "variable 'x100000' has an index above 64", 1, 5),
    ("integrand", "q^(1)*ord(x64 - x65", "unbalanced parentheses in ord(...)", 1, 20),
    ("integrand", "ord()", "expected an integer, a variable, or '('", 1, 5),
    ("integrand", "q^(1)*ord()", "expected an integer, a variable, or '('", 1, 11),
    ("poly", "", "expected an integer, a variable, or '('", 1, 1),
    ("integrand", "", "expected an integrand factor", 1, 1),
    ("integrand", "1 + ", "expected an integrand factor", 1, 5),
    ("integrand", "lin(1,0,1,0;x1)", "prepared forms apply to value-group variables g1, g2, ...", 1, 13),
    ("integrand", "lin(1,0,1,0;3)", "prepared forms apply to value-group variables g1, g2, ...", 1, 13),
    ("integrand", "lin(1,0,1,0)", "expected ';'", 1, 12),
    ("integrand", "lin(1,0,1;g1)", "expected ','", 1, 10),
    ("integrand", "lin(a,0,1,0;g1)", "expected an integer", 1, 5),
    ("integrand", "lin(1,0,0,0;g1)", "n must be >= 1", 1, 13),
    ("integrand", "lin(1,-1,1,0;g1)", "k must be >= 0", 1, 14),
    ("poly", "x1 x2", "unexpected trailing input 'x2'", 1, 4),
    ("poly", "x1)", "unexpected trailing input ')'", 1, 3),
    ("integrand", "ord(x1) ord(x2)", "unexpected trailing input 'ord'", 1, 9),
    ("poly", "x1 +\n x2 + $", "unexpected character '$'", 2, 7),
    ("poly", "x1 +\n", "expected an integer, a variable, or '('", 2, 1),
    ("poly", "x1 +\n\n  x2 y", "unknown symbol 'y' (variables are x1, x2, ...)", 3, 6),
    ("integrand", "ord(x1)\n  + q^(\n  ord(x2) +\n  )", "expected an integrand factor", 4, 3),
    ("integrand", "ord(x1)\n  + q^(\n  ord(x2) *\n  lin(1,0,1,0;g1))", "an exponent term multiplies two ord(...) or lin(...) factors", 3, 3),
    ("integrand", "ord(x1) +\n\n  lin(1,0,0,0;g1)", "n must be >= 1", 3, 15),
    ("integrand", "ord(x1 +\n  x2\n", "unbalanced parentheses in ord(...)", 3, 1),
    ("integrand", "q^(1) *\nord(x1 +\n y)", "valuation arguments are polynomials in x1, x2, ...", 3, 2),
]


def test_an_index_past_the_int_conversion_limit_is_a_parse_error():
    # int() refuses a string of more than 4,300 digits with a ValueError;
    # the scan never converts an index above MAX_INDEX
    with pytest.raises(ParseError) as err:
        parse_polynomial("x" + "1" * 5000)
    assert (err.value.line, err.value.column) == (1, 1)
    assert err.value.message.endswith("' has an index above 64")


@pytest.mark.parametrize("grammar, text, message, line, column", ERROR_CASES)
def test_parse_error_message_and_position(grammar, text, message, line, column):
    parse = parse_polynomial if grammar == "poly" else parse_integrand
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (err.value.message, err.value.line, err.value.column) == (message, line, column)
    assert str(err.value) == f"{message} (line {line}, column {column})"


def _stored(expr):
    return [(t.coeff.num.coeffs, t.coeff.den, t.q, t.factors) for t in expr.terms]


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32))
def test_parse_integrand_matches_the_algebra(seed):
    text, expr = random_integrand_text(random.Random(seed))
    parsed = parse_integrand(text)
    assert parsed == expr
    assert _stored(parsed) == _stored(expr)
    # both walk equal terms, so both name their variables in one order;
    # that order decides which variable a sort-mismatch DomainError names
    assert list(parsed.sorts.items()) == list(expr.sorts.items())
    # the rendering parses back to the same terms, and its text is a fixed point
    rendered = render_constructible(parsed)
    again = parse_integrand(rendered)
    assert render_constructible(again) == rendered
    assert [t.coeff for t in again.terms] == [t.coeff for t in parsed.terms]
    assert again == parsed


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32))
def test_parse_polynomial_matches_the_algebra(seed):
    text, poly = random_polynomial_text(random.Random(seed))
    parsed = parse_polynomial(text)
    assert parsed == poly and parsed.nvars == poly.nvars
    assert list(parsed.terms.items()) == list(poly.terms.items())


# The token alphabet of the fuzz test.  A digit never follows a name or a
# digit directly, so names stay x1 and g1 and literals one digit long; a
# space keeps them apart, and every exponent is then clamped to at most 2.
_FUZZ_TOKENS = ["q", "^", "(", ")", "ord", "lin", "x1", "g1", "0", "7", "-", "+", "*", ",", ";", "\n", " "]


def _fuzz_text(tokens) -> str:
    text = ""
    for tok in tokens:
        if tok[0].isdigit() and text[-1:].isalnum():
            text += " "
        text += tok
    return re.sub(r"\^(\s*)(\d+)", lambda m: "^" + m.group(1) + min(m.group(2), "2"), text)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(_FUZZ_TOKENS), max_size=18).map(_fuzz_text))
def test_parsers_raise_only_parse_errors(text):
    for parse in (parse_integrand, parse_polynomial):
        try:
            parse(text)
        except ParseError:
            pass
