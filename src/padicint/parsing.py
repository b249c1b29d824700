"""Parsers for polynomials and constructible integrands, with rendering.

Both grammars are one descent, sum -> product -> power -> atom
(_parse_sum): signed sums of products of factors, each factor an atom or
a parenthesised sum, optionally raised to a literal exponent ^n.  Only the
atoms differ.  Polynomial atoms are integer literals and variables x1..xn.
Integrand atoms are integer literals, q^(...) exponentials, ord(...)
valuation factors, whose argument is a polynomial in the same grammar, and
lin(a,k,n,delta;g) prepared linear forms in value-group variables g1..gm.
Rendering emits canonical text that parses back to the same expression.
"""

from __future__ import annotations

import re
from typing import Callable, NamedTuple, TypeVar

from .errors import ParseError
from .integrate import (
    ConstructibleExpr,
    IntConst,
    IntExpr,
    IntScale,
    IntSum,
    LinExpr,
    OrdExpr,
)
from .polys import Polynomial, signed_join
from .presburger import PreparedLinear

_T = TypeVar("_T")

_TOKEN_RE = re.compile(
    r"(?P<INT>\d+)|(?P<NAME>[A-Za-z_][A-Za-z0-9_]*)|(?P<OP>[-+*^();,])|(?P<BAD>\S)"
)


class Token(NamedTuple):
    kind: str  # INT NAME OP EOF
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[Token]:
    tokens = []
    lines = text.split("\n")
    for lineno, line in enumerate(lines, start=1):
        for match in _TOKEN_RE.finditer(line):
            col = match.start() + 1
            if match.lastgroup == "BAD":
                raise ParseError(f"unexpected character {match.group()!r}", lineno, col)
            tokens.append(Token(match.lastgroup, match.group(), lineno, col))
    tokens.append(Token("EOF", "", len(lines), len(lines[-1]) + 1))
    return tokens


class _Cursor:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def accept(self, text: str) -> bool:
        if self.peek().kind == "OP" and self.peek().text == text:
            self.next()
            return True
        return False

    def expect(self, text: str) -> Token:
        tok = self.peek()
        if tok.kind == "OP" and tok.text == text:
            return self.next()
        raise ParseError(f"expected {text!r}", tok.line, tok.col)

    def expect_int(self) -> int:
        sign = 1
        if self.accept("-"):
            sign = -1
        tok = self.peek()
        if tok.kind != "INT":
            raise ParseError("expected an integer", tok.line, tok.col)
        self.next()
        return sign * int(tok.text)

    def finish(self):
        if self.peek().kind != "EOF":
            self.fail(f"unexpected trailing input {self.peek().text!r}")

    def fail(self, message: str):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.col)


_VAR_RE = re.compile(r"([xg])([1-9][0-9]*)$")


def _var_index(name: str) -> tuple[str, int] | None:
    m = _VAR_RE.fullmatch(name)
    if not m:
        return None
    return m.group(1), int(m.group(2))


def _x_arity(tokens: list[Token], message: str) -> int:
    """Largest index n of the variables x1..xn among the tokens; any other
    name raises ParseError(message.format(name))."""
    nvars = 0
    for tok in tokens:
        if tok.kind == "NAME":
            v = _var_index(tok.text)
            if v is None or v[0] != "x":
                raise ParseError(message.format(tok.text), tok.line, tok.col)
            nvars = max(nvars, v[1])
    return nvars


# -- the shared grammar: sum -> product -> power -> atom -------------------------


def _parse_sum(cur: _Cursor, atom: Callable[[_Cursor], _T]) -> _T:
    negate = cur.accept("-")
    total = _parse_product(cur, atom)
    if negate:
        total = -total
    while True:
        if cur.accept("+"):
            total = total + _parse_product(cur, atom)
        elif cur.accept("-"):
            total = total - _parse_product(cur, atom)
        else:
            return total


def _parse_product(cur: _Cursor, atom: Callable[[_Cursor], _T]) -> _T:
    total = _parse_power(cur, atom)
    while cur.accept("*"):
        total = total * _parse_power(cur, atom)
    return total


def _parse_power(cur: _Cursor, atom: Callable[[_Cursor], _T]) -> _T:
    if cur.accept("("):
        base = _parse_sum(cur, atom)
        cur.expect(")")
    else:
        base = atom(cur)
    if cur.accept("^"):
        tok = cur.peek()
        if tok.kind != "INT":
            raise ParseError("expected an exponent after '^'", tok.line, tok.col)
        cur.next()
        return base ** int(tok.text)
    return base


# -- polynomials ---------------------------------------------------------------


def parse_polynomial(text: str) -> Polynomial:
    """Parse an integer polynomial in variables x1..xn; n is the largest
    index that appears (0 for a constant)."""
    tokens = _tokenize(text)
    nvars = _x_arity(tokens, "unknown symbol {!r} (variables are x1, x2, ...)")
    cur = _Cursor(tokens)
    poly = _parse_sum(cur, _poly_atom(nvars))
    cur.finish()
    return poly


def _poly_atom(nvars: int) -> Callable[[_Cursor], Polynomial]:
    """The polynomial atom; every name it meets was vetted by _x_arity."""

    def atom(cur: _Cursor) -> Polynomial:
        tok = cur.peek()
        if tok.kind == "INT":
            cur.next()
            return Polynomial.constant(int(tok.text), nvars)
        if tok.kind == "NAME":
            cur.next()
            return Polynomial.variable(_var_index(tok.text)[1] - 1, nvars)
        cur.fail("expected an integer, a variable, or '('")

    return atom


# -- integrands ------------------------------------------------------------------


def parse_integrand(text: str) -> ConstructibleExpr:
    """Parse a constructible function over variables x1..xn (field sort)
    and g1..gm (value-group sort)."""
    cur = _Cursor(_tokenize(text))
    expr = _parse_sum(cur, _parse_c_atom)
    cur.finish()
    return expr


def _parse_c_atom(cur: _Cursor) -> ConstructibleExpr:
    tok = cur.peek()
    if tok.kind == "INT":
        cur.next()
        return ConstructibleExpr.constant(int(tok.text))
    if tok.kind == "NAME":
        if tok.text == "q":
            cur.next()
            cur.expect("^")
            cur.expect("(")
            exponent = _parse_int_expr(cur)
            cur.expect(")")
            return ConstructibleExpr.q_exponent(exponent)
        if tok.text in ("ord", "lin"):
            return ConstructibleExpr.factor(_parse_int_atom(cur))
        raise ParseError(
            f"unknown symbol {tok.text!r} (expected q, ord, lin, or an integer)",
            tok.line,
            tok.col,
        )
    cur.fail("expected an integrand factor")


def _parse_int_expr(cur: _Cursor) -> IntExpr:
    parts: list[IntExpr] = []
    sign = -1 if cur.accept("-") else 1
    parts.append(_parse_int_term(cur, sign))
    while True:
        if cur.accept("+"):
            parts.append(_parse_int_term(cur, 1))
        elif cur.accept("-"):
            parts.append(_parse_int_term(cur, -1))
        else:
            break
    if len(parts) == 1:
        return parts[0]
    return IntSum(tuple(parts))


def _parse_int_term(cur: _Cursor, sign: int) -> IntExpr:
    tok = cur.peek()
    if tok.kind == "INT":
        cur.next()
        value = int(tok.text)
        if cur.accept("*"):
            atom = _parse_int_atom(cur)
            return _scaled(sign * value, atom)
        return IntConst(sign * value)
    atom = _parse_int_atom(cur)
    return _scaled(sign, atom)


def _scaled(scalar: int, atom: IntExpr) -> IntExpr:
    if scalar == 1:
        return atom
    return IntScale(scalar, atom)


def _parse_int_atom(cur: _Cursor) -> IntExpr:
    tok = cur.peek()
    if tok.kind == "NAME" and tok.text == "ord":
        cur.next()
        cur.expect("(")
        start = cur.pos
        depth = 1
        while depth:
            t = cur.next()
            if t.kind == "EOF":
                raise ParseError("unbalanced parentheses in ord(...)", t.line, t.col)
            if t.kind == "OP" and t.text == "(":
                depth += 1
            elif t.kind == "OP" and t.text == ")":
                depth -= 1
        nvars = _x_arity(
            cur.tokens[start : cur.pos - 1],
            "valuation arguments are polynomials in x1, x2, ...",
        )
        cur.pos = start
        poly = _parse_sum(cur, _poly_atom(nvars))
        cur.expect(")")
        return OrdExpr(poly, tuple(f"x{i + 1}" for i in range(nvars)))
    if tok.kind == "NAME" and tok.text == "lin":
        cur.next()
        cur.expect("(")
        a = cur.expect_int()
        cur.expect(",")
        k = cur.expect_int()
        cur.expect(",")
        n = cur.expect_int()
        cur.expect(",")
        delta = cur.expect_int()
        cur.expect(";")
        name_tok = cur.peek()
        v = _var_index(name_tok.text) if name_tok.kind == "NAME" else None
        if v is None or v[0] != "g":
            raise ParseError(
                "prepared forms apply to value-group variables g1, g2, ...",
                name_tok.line,
                name_tok.col,
            )
        cur.next()
        cur.expect(")")
        try:
            form = PreparedLinear(a, k, n, delta)
        except ValueError as exc:
            raise ParseError(str(exc), name_tok.line, name_tok.col)
        return LinExpr(form, name_tok.text)
    if tok.kind == "INT":
        cur.next()
        return IntConst(int(tok.text))
    if cur.accept("("):
        inner = _parse_int_expr(cur)
        cur.expect(")")
        return inner
    cur.fail("expected ord(...), lin(...), an integer, or '('")


# -- rendering -------------------------------------------------------------------


def render_intexpr(e: IntExpr, parenthesize: bool = False) -> str:
    if isinstance(e, IntConst):
        return str(e.value)
    if isinstance(e, LinExpr):
        f = e.form
        return f"lin({f.a},{f.k},{f.n},{f.delta};{e.var})"
    if isinstance(e, OrdExpr):
        return f"ord({e.poly.render(e.vars)})"
    if isinstance(e, IntScale):
        inner = render_intexpr(e.arg, parenthesize=isinstance(e.arg, IntSum))
        if e.scalar == 1:
            body = inner
        elif e.scalar == -1:
            body = f"-{inner}"
        else:
            body = f"{e.scalar}*{inner}"
        return f"({body})" if parenthesize and e.scalar < 0 else body
    if isinstance(e, IntSum):
        texts = (render_intexpr(p, parenthesize=isinstance(p, IntSum)) for p in e.parts)
        body = signed_join((t.startswith("-"), t.removeprefix("-")) for t in texts)
        return f"({body})" if parenthesize else body
    raise TypeError(f"not an integer expression: {e!r}")


def render_constructible(expr: ConstructibleExpr) -> str:
    """Canonical text for a parsed expression; parses back to equal terms."""
    rendered = []
    for term in expr.terms:
        coeff = term.coeff.as_rational()
        if coeff is None or coeff.denominator != 1:
            raise ValueError(
                "only integer-coefficient expressions have a canonical rendering"
            )
        c = coeff.numerator
        factors = []
        for qpart in term.qparts:
            factors.append(f"q^({render_intexpr(qpart)})")
        for z in term.zfactors:
            if isinstance(z, (OrdExpr, LinExpr, IntConst)):
                factors.append(render_intexpr(z))
            else:
                factors.append(f"({render_intexpr(z)})")
        if not factors or abs(c) != 1:
            factors.insert(0, str(abs(c)))
        rendered.append((c < 0, "*".join(factors)))
    return signed_join(rendered)
