"""Parsers for polynomials and constructible integrands, with rendering.

One descent, sum -> product -> power -> atom (_parse_sum), reads every
expression: signed sums of products of factors, each factor an atom or a
parenthesised sum, optionally raised to a literal exponent ^n.  Only the
atoms and the algebra differ.  Polynomial atoms are integer literals and
variables x1..xn, n at most MAX_INDEX, combined by Polynomial's own + - *.
Integrand atoms are integer literals, q^(E) exponentials, ord(...)
valuation factors, whose argument is a polynomial, and lin(a,k,n,delta;g)
prepared linear forms in value-group variables g1..gm.

An integer sum is one affine form, folded by _integer_form: each of its
terms is an integer times at most one ord, lin or folded factor, and none
has a q^(...) factor.  The exponent E is such a sum, or a parse error.  A
parenthesised integrand sum of that shape is one factor too (one integer
when it names no leaf), so (1 + ord(x1))^14 is one term; any other
parenthesised sum is read as its terms.

An integrand is read as a list of (int coefficient, q form, factor forms)
triples, never combined or reordered, whose affine forms are those of
integrate and share one leaf per distinct ord or lin argument; one
ConstructibleExpr is built at the end.  Before a polynomial is read, one
forward scan of its tokens finds where it ends, checks its names and gives
its arity.  Token positions are computed only when a ParseError is raised.
Rendering emits canonical text that parses back to the same terms (see
render_constructible).
"""

from __future__ import annotations

import operator
import re

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
    _add_into,
)
from .polys import Polynomial, signed_join
from .presburger import PreparedLinear

_TOKEN_RE = re.compile(r"\d+|[A-Za-z_][A-Za-z0-9_]*|[-+*^();,]")
_BAD_RE = re.compile(r"[^\s\dA-Za-z_\-+*^();,]")
_VAR_RE = re.compile(r"([xg])([1-9][0-9]*)")

# The largest index N of a field variable xN.  A polynomial's arity is the
# largest index it names, and its exponent tuples are that long.
MAX_INDEX = 64
_FIELD_INDEX = {f"x{k}": k for k in range(1, MAX_INDEX + 1)}


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


# -- the shared grammar: sum -> product -> power -> atom -------------------------
#
# Each function takes the tokens and an index and returns (value, next
# index).  alg is the algebra: atom(tokens, i), add, neg, mul and group,
# the value of a parenthesised sum, none of which changes a value in
# place.  a - b is a + (-b), a^n is a * a * ... * a and a^0 is the atom 1,
# as in Polynomial and ConstructibleExpr.


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
        base, i = alg.group(base), _expect(tokens, i, ")")
    else:
        base, i = alg.atom(tokens, i)
    if tokens[i] != "^":
        return base, i
    if not tokens[i + 1][:1].isdigit():
        raise _Fail("expected an exponent after '^'", i + 1)
    n = int(tokens[i + 1])
    out = base if n else alg.atom(["1"], 0)[0]
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


def _scan_polynomial(tokens: list[str], start: int, closed: bool, message: str) -> tuple[int, int]:
    """(end, arity) of the polynomial whose tokens start at start, in one
    forward pass; the arity is the largest N of a variable xN.  A closed
    polynomial, an ord argument, ends at the ')' that balances the '('
    before start, and fails if there is none; any other ends at the end.
    Then the first name that is not a field variable fails, with
    message.format(name), or as an index above MAX_INDEX, so both come
    before any syntax error."""
    nvars, bad, depth, i = 0, None, 0, start
    while tokens[i]:
        tok = tokens[i]
        if tok == "(":
            depth += 1
        elif tok == ")":
            if closed and not depth:
                break
            depth -= 1
        elif tok in _FIELD_INDEX:
            nvars = max(nvars, _FIELD_INDEX[tok])
        elif bad is None and _is_name(tok):
            bad = i
        i += 1
    if closed and not tokens[i]:
        raise _Fail("unbalanced parentheses in ord(...)", i)
    if bad is not None:
        if tokens[bad][0] == "x" and _VAR_RE.fullmatch(tokens[bad]):
            message = f"variable {{!r}} has an index above {MAX_INDEX}"
        raise _Fail(message.format(tokens[bad]), bad)
    return i, nvars


class _PolyAlgebra:
    """Polynomial's own algebra in x1..x{nvars}, on tokens whose names
    _scan_polynomial has checked."""

    add, neg, mul = operator.add, operator.neg, operator.mul
    group = staticmethod(lambda value: value)  # a parenthesised polynomial is its value

    def __init__(self, nvars: int):
        self.nvars = nvars

    def atom(self, tokens, i):
        tok = tokens[i]
        if tok[:1].isdigit():
            return Polynomial.constant(int(tok), self.nvars), i + 1
        if _is_name(tok):
            return Polynomial.variable(int(tok[1:]) - 1, self.nvars), i + 1
        raise _Fail("expected an integer, a variable, or '('", i)


def parse_polynomial(text: str) -> Polynomial:
    """Parse an integer polynomial in variables x1..xn; n, at most
    MAX_INDEX, is the largest index that appears (0 for a constant).  The
    first unknown name is reported before any syntax error."""
    tokens = _tokenize(text)
    try:
        _, nvars = _scan_polynomial(tokens, 0, False, "unknown symbol {!r} (variables are x1, x2, ...)")
        return _parse_all(tokens, _PolyAlgebra(nvars))
    except _Fail as fail:
        raise fail.error(text) from None


# -- integrands ------------------------------------------------------------------


class _IntegrandTerms:
    """The integrand algebra on lists of (int coefficient, q form, factor
    forms) triples; a term without a q^(...) factor holds _ZERO itself.
    leaves maps each distinct leaf to one form (0, {leaf: 1}), so every
    form of one parse holds the same leaf objects, and the token texts of
    each ord(...) or lin(...) without inner parentheses, up to its ')', to
    the same form, so a repeated one is parsed once."""

    def __init__(self):
        self.leaves: dict = {}

    def atom(self, tokens, i):
        tok = tokens[i]
        if tok[:1].isdigit():
            return [(int(tok), _ZERO, ())], i + 1
        if tok == "q":
            start = _expect(tokens, _expect(tokens, i + 1, "^"), "(")
            terms, i = _parse_sum(tokens, start, self)
            i = _expect(tokens, i, ")")
            return [(1, _integer_form(terms, start), ())], i
        if tok == "ord" or tok == "lin":
            try:
                close = tokens.index(")", i)
            except ValueError:
                close = len(tokens)  # no text ends in "", so this is never found
            text = tuple(tokens[i:close])
            factor, end = self.leaves.get(text), close + 1
            if factor is None:
                parse = _parse_ord if tok == "ord" else _parse_lin
                leaf, end = parse(tokens, _expect(tokens, i + 1, "("))
                factor = self.leaves.setdefault(leaf, (0, {leaf: 1}))
                if end == close + 1:
                    self.leaves[text] = factor
            return [(1, _ZERO, (factor,))], end
        if _is_name(tok):
            raise _Fail(f"unknown symbol {tok!r} (expected q, ord, lin, or an integer)", i)
        raise _Fail("expected an integrand factor", i)

    def neg(self, a):
        return [(-c, q, z) for c, q, z in a]

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return [(c1 * c2, _add_forms(q1, q2), z1 + z2) for c1, q1, z1 in a for c2, q2, z2 in b]

    def group(self, terms):
        """A parenthesised sum that _integer_form folds as one factor form,
        or as one integer when it names no leaf; any other as its terms."""
        try:
            form = _integer_form(terms, 0)
        except _Fail:
            return terms
        return [(1, _ZERO, (form,))] if form[1] else [(form[0], _ZERO, ())]


def parse_integrand(text: str) -> ConstructibleExpr:
    """Parse a constructible function over variables x1..xn (field sort)
    and g1..gm (value-group sort)."""
    tokens = _tokenize(text)
    try:
        triples = _parse_all(tokens, _IntegrandTerms())
    except _Fail as fail:
        raise fail.error(text) from None
    terms = [Term(AqElem.from_rational(c), q, z) for c, q, z in triples]
    return ConstructibleExpr(terms)


def _integer_form(terms: list, at: int) -> Form:
    """The one affine form of integrand terms that are each an integer
    times at most one factor form, as a q^(...) exponent or a parenthesised
    sum is read: the leaves in the order the terms name them, one scaled by
    0 kept at 0.  A term with a q^(...) factor or two factors fails at
    token at, an exponent's first."""
    c0, lin = 0, {}
    for c, q, factors in terms:
        if q is not _ZERO:
            raise _Fail("an exponent cannot hold q^(...)", at)
        if len(factors) > 1:
            raise _Fail("an exponent term multiplies two ord(...) or lin(...) factors", at)
        if factors:
            c0 += c * factors[0][0]
            _add_into(lin, factors[0][1], c)
        else:
            c0 += c
    return c0, lin


def _parse_ord(tokens: list[str], start: int) -> tuple[OrdExpr, int]:
    """The leaf of ord( with the polynomial argument from tokens[start] to
    its ')', and the index past that ')'."""
    message = "valuation arguments are polynomials in x1, x2, ..."
    end, nvars = _scan_polynomial(tokens, start, True, message)
    poly, i = _parse_sum(tokens, start, _PolyAlgebra(nvars))
    _expect(tokens, i, ")")
    return OrdExpr(poly, tuple(f"x{k + 1}" for k in range(nvars))), end + 1


def _parse_lin(tokens: list[str], start: int) -> tuple[LinExpr, int]:
    """The leaf of lin( with the arguments a,k,n,delta;g from tokens[start],
    and the index past its ')'."""
    args, at = [], start
    for sep in ",,,;":
        value, at = _expect_int(tokens, at)
        args.append(value)
        at = _expect(tokens, at, sep)
    name = tokens[at]
    if name[:1] != "g" or not _VAR_RE.fullmatch(name):
        raise _Fail("prepared forms apply to value-group variables g1, g2, ...", at)
    i = _expect(tokens, at + 1, ")")
    try:
        return LinExpr(PreparedLinear(*args), name), i
    except ValueError as exc:
        raise _Fail(str(exc), at)


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
    """Canonical text for an expression with integer coefficients, one
    q^(...) per term, which parses back to equal terms.  A factor that is
    not a single leaf is written as a parenthesised sum, (2*ord(x1) + 1),
    which the grammar folds back to that one factor.  Only a factor that
    names no leaf, which neither the parser nor integrate builds, reads
    back as an integer coefficient instead."""
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
