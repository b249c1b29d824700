"""Parsers for polynomials and constructible integrands, with rendering.

Both grammars are one descent, sum -> product -> power -> atom
(_parse_sum): signed sums of products of factors, each factor an atom or
a parenthesised sum, optionally raised to a literal exponent ^n.  Only
the atoms and the algebra differ.  Polynomial atoms are integer literals
and variables x1..xn.  Integrand atoms are integer literals, q^(...)
exponentials, ord(...) valuation factors, whose argument is a polynomial
in the same grammar, and lin(a,k,n,delta;g) prepared linear forms in
value-group variables g1..gm.

The descent makes one pass over the token texts and works on plain data:
a polynomial is {exponent tuple: int}, an integrand a list of (int
coefficient, q form, factor forms) triples, never combined or reordered,
whose affine forms are those of integrate and share one leaf per distinct
ord or lin argument.  One Polynomial or one ConstructibleExpr is built at
the end, equal term by term to what their own algebra gives for the text.
Token positions are computed only when a ParseError is raised.  Rendering
emits canonical text that parses back to the same expression where every
factor is a single leaf, as in every parsed expression; otherwise the text
parses back to an expression of the same value (see render_constructible).
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import zip_longest

from .aqring import AqElem
from .errors import ParseError
from .integrate import (
    _ZERO,
    ConstructibleExpr,
    Form,
    LinExpr,
    OrdExpr,
    Term,
    _add_forms,
)
from .polys import Polynomial, signed_join
from .presburger import PreparedLinear

_TOKEN_RE = re.compile(r"\d+|[A-Za-z_][A-Za-z0-9_]*|[-+*^();,]")
_BAD_RE = re.compile(r"[^\s\dA-Za-z_\-+*^();,]")
_VAR_RE = re.compile(r"([xg])([1-9][0-9]*)")


def _tokenize(text: str) -> list[str]:
    """The token texts, then "" for the end.  Only an operator token's text
    can equal an operator, and only an integer's starts with a digit."""
    bad = _BAD_RE.search(text)
    if bad:
        raise ParseError(f"unexpected character {bad.group()!r}", *_line_col(text, bad.start()))
    tokens = _TOKEN_RE.findall(text)
    tokens.append("")
    return tokens


def _line_col(text: str, offset: int) -> tuple[int, int]:
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


class _Fail(Exception):
    """A parse error at a token index; parse_* turn it into a ParseError."""

    def __init__(self, message: str, index: int):
        self.message = message
        self.index = index

    def error(self, text: str) -> ParseError:
        offsets = [m.start() for m in _TOKEN_RE.finditer(text)]
        offset = offsets[self.index] if self.index < len(offsets) else len(text)
        return ParseError(self.message, *_line_col(text, offset))


def _is_name(tok: str) -> bool:
    return tok[:1].isalpha() or tok[:1] == "_"


def _first_bad_name(tokens: list[str], start: int, stop: int, message: str) -> _Fail | None:
    """A _Fail at the first name in tokens[start:stop] that is not a field
    variable x1, x2, ..., with message.format(name)."""
    for j in range(start, stop):
        tok = tokens[j]
        if _is_name(tok) and (tok[0] != "x" or not _VAR_RE.fullmatch(tok)):
            return _Fail(message.format(tok), j)
    return None


# -- the shared grammar: sum -> product -> power -> atom -------------------------
#
# Each function takes the tokens and an index and returns (value, next
# index).  alg is the algebra: atom(tokens, i), add, neg, mul, and one, the
# value of a factor raised to ^0, which no step changes in place.  a - b is
# a + (-b), and a^n is a * a * ... * a, as in Polynomial and ConstructibleExpr.


def _parse_all(tokens: list[str], alg):
    value, i = _parse_sum(tokens, 0, alg)
    if tokens[i]:
        raise _Fail(f"unexpected trailing input {tokens[i]!r}", i)
    return value


def _parse_sum(tokens: list[str], i: int, alg):
    negate = tokens[i] == "-"
    total, i = _parse_product(tokens, i + negate, alg)
    if negate:
        total = alg.neg(total)
    while tokens[i] == "+" or tokens[i] == "-":
        op = tokens[i]
        rhs, i = _parse_product(tokens, i + 1, alg)
        total = alg.add(total, rhs if op == "+" else alg.neg(rhs))
    return total, i


def _parse_product(tokens: list[str], i: int, alg):
    total, i = _parse_power(tokens, i, alg)
    while tokens[i] == "*":
        rhs, i = _parse_power(tokens, i + 1, alg)
        total = alg.mul(total, rhs)
    return total, i


def _parse_power(tokens: list[str], i: int, alg):
    if tokens[i] == "(":
        base, i = _parse_sum(tokens, i + 1, alg)
        i = _expect(tokens, i, ")")
    else:
        base, i = alg.atom(tokens, i)
    if tokens[i] != "^":
        return base, i
    if not tokens[i + 1][:1].isdigit():
        raise _Fail("expected an exponent after '^'", i + 1)
    n = int(tokens[i + 1])
    out = base if n else alg.one
    for _ in range(n - 1):
        out = alg.mul(out, base)
    return out, i + 2


def _expect(tokens: list[str], i: int, op: str) -> int:
    if tokens[i] != op:
        raise _Fail(f"expected {op!r}", i)
    return i + 1


def _expect_int(tokens: list[str], i: int) -> tuple[int, int]:
    sign = -1 if tokens[i] == "-" else 1
    i += sign < 0
    if not tokens[i][:1].isdigit():
        raise _Fail("expected an integer", i)
    return sign * int(tokens[i]), i + 1


# -- polynomials ---------------------------------------------------------------


class _PolyTerms:
    """The polynomial algebra on {exponent tuple: int}, exponent tuples
    without trailing zeros, zero coefficients dropped after each step as
    Polynomial does; nvars is the largest variable index read."""

    one = {(): 1}

    def __init__(self):
        self.nvars = 0

    def atom(self, tokens, i):
        tok = tokens[i]
        if tok[:1].isdigit():
            c = int(tok)
            return ({(): c} if c else {}), i + 1
        m = _VAR_RE.fullmatch(tok) if tok[:1] == "x" else None
        if m is None:
            raise _Fail("expected an integer, a variable, or '('", i)
        index = int(m.group(2))
        if index > self.nvars:
            self.nvars = index
        return {(0,) * (index - 1) + (1,): 1}, i + 1

    def neg(self, a):
        return {e: -c for e, c in a.items()}

    def add(self, a, b):
        out = dict(a)
        for e, c in b.items():
            out[e] = out[e] + c if e in out else c
        return {e: c for e, c in out.items() if c}

    def mul(self, a, b):
        out = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple([x + y for x, y in zip_longest(e1, e2, fillvalue=0)])
                c = c1 * c2
                out[e] = out[e] + c if e in out else c
        return {e: c for e, c in out.items() if c}

    def polynomial(self, terms: dict) -> Polynomial:
        n = self.nvars
        padded = {e + (0,) * (n - len(e)): Fraction(c) for e, c in terms.items()}
        return Polynomial._reduced(n, padded)


def parse_polynomial(text: str) -> Polynomial:
    """Parse an integer polynomial in variables x1..xn; n is the largest
    index that appears (0 for a constant)."""
    tokens = _tokenize(text)
    alg = _PolyTerms()
    try:
        terms = _parse_all(tokens, alg)
    except _Fail as fail:
        # an unknown name anywhere is reported before any syntax error
        message = "unknown symbol {!r} (variables are x1, x2, ...)"
        raise (_first_bad_name(tokens, 0, len(tokens), message) or fail).error(text) from None
    return alg.polynomial(terms)


# -- integrands ------------------------------------------------------------------


class _IntegrandTerms:
    """The integrand algebra on lists of (int coefficient, q form, factor
    forms) triples.  leaves holds one form (0, {leaf: 1}) per distinct ord
    argument and lin(...), so every form of one parse holds the same leaf
    objects."""

    one = [(1, _ZERO, ())]

    def __init__(self):
        self.leaves: dict[tuple, Form] = {}

    def atom(self, tokens, i):
        tok = tokens[i]
        if tok[:1].isdigit():
            return [(int(tok), _ZERO, ())], i + 1
        if tok == "q":
            i = _expect(tokens, _expect(tokens, i + 1, "^"), "(")
            exponent, i = _parse_int_expr(tokens, i, self)
            return [(1, exponent, ())], _expect(tokens, i, ")")
        if tok == "ord" or tok == "lin":
            factor, i = _parse_int_atom(tokens, i, self)
            return [(1, _ZERO, (factor,))], i
        if _is_name(tok):
            raise _Fail(f"unknown symbol {tok!r} (expected q, ord, lin, or an integer)", i)
        raise _Fail("expected an integrand factor", i)

    def neg(self, a):
        return [(-c, q, z) for c, q, z in a]

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return [(c1 * c2, _add_forms(q1, q2), z1 + z2) for c1, q1, z1 in a for c2, q2, z2 in b]


def parse_integrand(text: str) -> ConstructibleExpr:
    """Parse a constructible function over variables x1..xn (field sort)
    and g1..gm (value-group sort)."""
    tokens = _tokenize(text)
    alg = _IntegrandTerms()
    try:
        triples = _parse_all(tokens, alg)
    except _Fail as fail:
        raise fail.error(text) from None
    terms = [Term(AqElem.from_rational(c), q, z) for c, q, z in triples]
    return ConstructibleExpr(terms)


def _parse_int_expr(tokens: list[str], i: int, alg: _IntegrandTerms) -> tuple[Form, int]:
    """A signed sum of terms, read into one affine form."""
    sign = -1 if tokens[i] == "-" else 1
    form, i = _parse_int_term(tokens, i + (sign < 0), sign, alg)
    while tokens[i] == "+" or tokens[i] == "-":
        part, i = _parse_int_term(tokens, i + 1, 1 if tokens[i] == "+" else -1, alg)
        form = _add_forms(form, part)
    return form, i


def _parse_int_term(tokens: list[str], i: int, sign: int, alg: _IntegrandTerms) -> tuple[Form, int]:
    """c, c*atom or atom, times sign; a leaf scaled by 0 keeps its key."""
    scalar = sign
    if tokens[i][:1].isdigit():
        scalar = sign * int(tokens[i])
        if tokens[i + 1] != "*":
            return (scalar, {}), i + 1
        i += 2
    (c, lin), i = _parse_int_atom(tokens, i, alg)
    if scalar == 1:
        return (c, lin), i
    return (scalar * c, {a: scalar * x for a, x in lin.items()}), i


def _parse_int_atom(tokens: list[str], i: int, alg: _IntegrandTerms) -> tuple[Form, int]:
    tok = tokens[i]
    if tok == "ord":
        return _parse_ord(tokens, _expect(tokens, i + 1, "("), alg)
    if tok == "lin":
        at, args = _expect(tokens, i + 1, "("), []
        for sep in ",,,;":
            value, at = _expect_int(tokens, at)
            args.append(value)
            at = _expect(tokens, at, sep)
        name = tokens[at]
        m = _VAR_RE.fullmatch(name)
        if m is None or m.group(1) != "g":
            raise _Fail("prepared forms apply to value-group variables g1, g2, ...", at)
        i = _expect(tokens, at + 1, ")")
        key = ("lin", name, *args)
        form = alg.leaves.get(key)
        if form is None:
            try:
                form = alg.leaves[key] = (0, {LinExpr(PreparedLinear(*args), name): 1})
            except ValueError as exc:
                raise _Fail(str(exc), at)
        return form, i
    if tok[:1].isdigit():
        return (int(tok), {}), i + 1
    if tok == "(":
        inner, i = _parse_int_expr(tokens, i + 1, alg)
        return inner, _expect(tokens, i, ")")
    raise _Fail("expected ord(...), lin(...), an integer, or '('", i)


def _parse_ord(tokens: list[str], start: int, alg: _IntegrandTerms) -> tuple[Form, int]:
    """The form of ord( with the polynomial argument from tokens[start] to
    its ')', shared by every equal argument of the parse.  On an
    error an unbalanced argument is reported first, then the first name in
    it that is not a field variable, then the error met."""
    poly = _PolyTerms()
    try:
        terms, i = _parse_sum(tokens, start, poly)
        end = _expect(tokens, i, ")")
    except _Fail as fail:
        depth, j = 1, start
        while depth:
            if not tokens[j]:
                raise _Fail("unbalanced parentheses in ord(...)", j)
            depth += (tokens[j] == "(") - (tokens[j] == ")")
            j += 1
        message = "valuation arguments are polynomials in x1, x2, ..."
        raise _first_bad_name(tokens, start, j - 1, message) or fail
    names = tuple(f"x{k + 1}" for k in range(poly.nvars))
    key = ("ord", poly.nvars, *sorted(terms.items()))
    form = alg.leaves.get(key)
    if form is None:
        form = alg.leaves[key] = (0, {OrdExpr(poly.polynomial(terms), names): 1})
    return form, end


# -- rendering -------------------------------------------------------------------


def _render_leaf(leaf) -> str:
    if isinstance(leaf, LinExpr):
        f = leaf.form
        return f"lin({f.a},{f.k},{f.n},{f.delta};{leaf.var})"
    text = leaf.poly.render(leaf.vars)
    if leaf.poly.nvars and not leaf.poly.mentions(leaf.poly.nvars - 1):
        # the parser reads the arity from the largest index named
        text += f" + 0*{leaf.vars[-1]}"
    return f"ord({text})"


def _render_form(form: Form) -> str:
    """c0 + sum c * leaf as the leaves in key order, a cancelled one as
    0*leaf, then the constant: the text parses back to an equal form."""
    parts = []
    for leaf, c in form[1].items():
        text = _render_leaf(leaf)
        parts.append((c < 0, text if c in (1, -1) else f"{abs(c)}*{text}"))
    if form[0]:
        parts.append((form[0] < 0, str(abs(form[0]))))
    return signed_join(parts)


def render_constructible(expr: ConstructibleExpr) -> str:
    """Canonical text for a parsed expression, one q^(...) per term, which
    parses back to equal terms.  A factor that is not a single leaf, which
    the parser never builds, is written as a parenthesised sum, which the
    grammar reads as a sum of terms: (2*ord(x1) + 1) parses back to two
    terms of the same value, not to the one term it came from."""
    rendered = []
    for term in expr.terms:
        coeff = term.coeff.as_rational()
        if coeff is None or coeff.denominator != 1:
            raise ValueError(
                "only integer-coefficient expressions have a canonical rendering"
            )
        c = coeff.numerator
        factors = [f"q^({_render_form(term.q)})"] if term.q[0] or term.q[1] else []
        for z in term.factors:
            text = _render_form(z)
            factors.append(text if z[0] == 0 and list(z[1].values()) == [1] else f"({text})")
        if not factors or abs(c) != 1:
            factors.insert(0, str(abs(c)))
        rendered.append((c < 0, "*".join(factors)))
    return signed_join(rendered)
