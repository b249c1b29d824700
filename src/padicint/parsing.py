"""Parsers for polynomials and constructible integrands, with rendering.

Polynomial grammar: integer literals, variables x1..xn, + - * ^ and
parentheses.  The integrand grammar adds q^(...) exponentials, ord(...)
valuation factors, lin(a,k,n,delta;g) prepared linear forms, and
value-group variables g1..gm.  Rendering emits canonical text that parses
back to the same expression.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

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

_TOKEN_RE = re.compile(r"\d+|[A-Za-z_][A-Za-z0-9_]*|[-+*^();,]|\S")


@dataclass(frozen=True)
class Token:
    kind: str  # INT NAME OP EOF
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[Token]:
    tokens = []
    for lineno, line in enumerate(text.splitlines() or [""], start=1):
        for match in _TOKEN_RE.finditer(line):
            lexeme = match.group()
            col = match.start() + 1
            if lexeme.isdigit():
                kind = "INT"
            elif re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", lexeme):
                kind = "NAME"
            elif lexeme in "+-*^();,":
                kind = "OP"
            else:
                raise ParseError(f"unexpected character {lexeme!r}", lineno, col)
            tokens.append(Token(kind, lexeme, lineno, col))
    last_line = text.count("\n") + 1
    last_col = len(text.splitlines()[-1]) + 1 if text.splitlines() else 1
    tokens.append(Token("EOF", "", last_line, last_col))
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

    def fail(self, message: str):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.col)


_VAR_RE = re.compile(r"([xg])([1-9][0-9]*)$")


def _var_index(name: str) -> tuple[str, int] | None:
    m = _VAR_RE.fullmatch(name)
    if not m:
        return None
    return m.group(1), int(m.group(2))


# -- polynomials ---------------------------------------------------------------


def parse_polynomial(text: str) -> Polynomial:
    """Parse an integer polynomial in variables x1..xn; n is the largest
    index that appears (0 for a constant)."""
    tokens = _tokenize(text)
    nvars = 0
    for tok in tokens:
        if tok.kind == "NAME":
            v = _var_index(tok.text)
            if v is None or v[0] != "x":
                raise ParseError(
                    f"unknown symbol {tok.text!r} (variables are x1, x2, ...)",
                    tok.line,
                    tok.col,
                )
            nvars = max(nvars, v[1])
    cur = _Cursor(tokens)
    poly = _parse_poly_expr(cur, nvars)
    if cur.peek().kind != "EOF":
        cur.fail(f"unexpected trailing input {cur.peek().text!r}")
    return poly


def _parse_poly_expr(cur: _Cursor, nvars: int) -> Polynomial:
    negate = cur.accept("-")
    total = _parse_poly_term(cur, nvars)
    if negate:
        total = -total
    while True:
        if cur.accept("+"):
            total = total + _parse_poly_term(cur, nvars)
        elif cur.accept("-"):
            total = total - _parse_poly_term(cur, nvars)
        else:
            return total


def _parse_poly_term(cur: _Cursor, nvars: int) -> Polynomial:
    total = _parse_poly_factor(cur, nvars)
    while cur.accept("*"):
        total = total * _parse_poly_factor(cur, nvars)
    return total


def _parse_poly_factor(cur: _Cursor, nvars: int) -> Polynomial:
    base = _parse_poly_atom(cur, nvars)
    if cur.accept("^"):
        tok = cur.peek()
        if tok.kind != "INT":
            raise ParseError("expected an exponent after '^'", tok.line, tok.col)
        cur.next()
        return base ** int(tok.text)
    return base


def _parse_poly_atom(cur: _Cursor, nvars: int) -> Polynomial:
    tok = cur.peek()
    if tok.kind == "INT":
        cur.next()
        return Polynomial.constant(int(tok.text), nvars)
    if tok.kind == "NAME":
        v = _var_index(tok.text)
        if v is not None and v[0] == "x":
            cur.next()
            return Polynomial.variable(v[1] - 1, nvars)
        raise ParseError(f"unknown symbol {tok.text!r}", tok.line, tok.col)
    if cur.accept("("):
        inner = _parse_poly_expr(cur, nvars)
        cur.expect(")")
        return inner
    cur.fail("expected an integer, a variable, or '('")


# -- integrands ------------------------------------------------------------------


def parse_integrand(text: str) -> ConstructibleExpr:
    """Parse a constructible function over variables x1..xn (field sort)
    and g1..gm (value-group sort)."""
    cur = _Cursor(_tokenize(text))
    expr = _parse_c_expr(cur)
    if cur.peek().kind != "EOF":
        cur.fail(f"unexpected trailing input {cur.peek().text!r}")
    return expr


def _parse_c_expr(cur: _Cursor) -> ConstructibleExpr:
    negate = cur.accept("-")
    total = _parse_c_term(cur)
    if negate:
        total = -total
    while True:
        if cur.accept("+"):
            total = total + _parse_c_term(cur)
        elif cur.accept("-"):
            total = total - _parse_c_term(cur)
        else:
            return total


def _parse_c_term(cur: _Cursor) -> ConstructibleExpr:
    total = _parse_c_factor(cur)
    while cur.accept("*"):
        total = total * _parse_c_factor(cur)
    return total


def _parse_c_factor(cur: _Cursor) -> ConstructibleExpr:
    base = _parse_c_atom(cur)
    if cur.accept("^"):
        tok = cur.peek()
        if tok.kind != "INT":
            raise ParseError("expected an exponent after '^'", tok.line, tok.col)
        cur.next()
        power = int(tok.text)
        out = ConstructibleExpr.constant(1)
        for _ in range(power):
            out = out * base
        return out
    return base


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
    if cur.accept("("):
        inner = _parse_c_expr(cur)
        cur.expect(")")
        return inner
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
        inner_tokens = cur.tokens[start : cur.pos - 1]
        poly, names = _poly_from_tokens(inner_tokens, cur)
        return OrdExpr(poly, names)
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


def _poly_from_tokens(tokens: list[Token], outer: _Cursor) -> tuple[Polynomial, tuple[str, ...]]:
    nvars = 0
    for tok in tokens:
        if tok.kind == "NAME":
            v = _var_index(tok.text)
            if v is None or v[0] != "x":
                raise ParseError(
                    "valuation arguments are polynomials in x1, x2, ...",
                    tok.line,
                    tok.col,
                )
            nvars = max(nvars, v[1])
    sub = _Cursor(tokens + [Token("EOF", "", tokens[-1].line if tokens else 1, tokens[-1].col + len(tokens[-1].text) if tokens else 1)])
    poly = _parse_poly_expr(sub, nvars)
    if sub.peek().kind != "EOF":
        sub.fail(f"unexpected trailing input {sub.peek().text!r}")
    return poly, tuple(f"x{i + 1}" for i in range(nvars))


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
        parts = []
        for part in e.parts:
            text = render_intexpr(part, parenthesize=isinstance(part, IntSum))
            if parts and text.startswith("-"):
                parts.append(f"- {text[1:]}")
            elif parts:
                parts.append(f"+ {text}")
            else:
                parts.append(text)
        body = " ".join(parts)
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
