"""Text form of polynomials: a small expression grammar and its inverse.

Grammar (whitespace ignored, multiplication always explicit):

    expr     := ['-'] term (('+' | '-') term)*
    term     := factor ('*' factor)*
    factor   := base ('^' integer)?
    base     := integer ('/' integer)? | variable | '(' expr ')'
    integer  := decimal digits, exactly those int() reads
    variable := word characters, the first not a decimal digit

Rational literals are integer/integer pairs such as ``3/2``; general
division is not part of the language. ``^`` binds tighter than ``*``,
which binds tighter than ``+``/``-``, and powers are expanded eagerly so
the result is always a plain polynomial. Any other character is an
error, and errors carry the 1-based position of the offending one.

A power whose expansion could hold more than ``MAX_POWER_TERMS`` terms
is refused before it is expanded, with a ``ValueError`` (not a syntax
error) giving the position of its ``^``.
"""

from __future__ import annotations

import math
import re
from typing import NamedTuple

from .order import MonomialOrder, sorted_terms
from .ring import Polynomial, VariableContext, rat_normalize

# The largest power under the cap, (x+y+z)^61 with 1953 terms, expands in
# about 1.1 s on one core of a 2-core Xeon VM.
MAX_POWER_TERMS = 2_000


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


class _Token(NamedTuple):
    kind: str  # "int" | "name" | one of "+-*/^()" | "end"
    text: str
    position: int  # 1-based column of the first character


# Whitespace matches no alternative, so finditer skips it.
_TOKEN = re.compile(r"(?P<int>\d+)|(?P<name>[^\W\d]\w*)|(?P<op>[-+*/^()])|(?P<bad>\S)")


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    for match in _TOKEN.finditer(text):
        kind, lexeme, position = match.lastgroup, match.group(), match.start() + 1
        if kind == "bad":
            raise ParseError(f"unexpected character {lexeme!r}", position)
        tokens.append(_Token(lexeme if kind == "op" else kind, lexeme, position))
    tokens.append(_Token("end", "", len(text) + 1))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], ctx: VariableContext):
        self.tokens = tokens
        self.ctx = ctx
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str) -> None:
        tok = self.peek()
        if tok.kind == "end":
            raise ParseError(f"{message}, found end of input", tok.position)
        raise ParseError(f"{message}, found {tok.text!r}", tok.position)

    def expr(self) -> Polynomial:
        negate = False
        if self.peek().kind == "-":
            self.advance()
            negate = True
        poly = self.term()
        if negate:
            poly = -poly
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            rhs = self.term()
            poly = poly + rhs if op.kind == "+" else poly - rhs
        return poly

    def term(self) -> Polynomial:
        poly = self.factor()
        while True:
            tok = self.peek()
            if tok.kind == "*":
                self.advance()
                poly = poly * self.factor()
            elif tok.kind == "/":
                raise ParseError(
                    "division is only allowed between integer literals", tok.position
                )
            else:
                return poly

    def factor(self) -> Polynomial:
        base = self.base()
        if self.peek().kind == "^":
            caret = self.advance()
            tok = self.peek()
            if tok.kind == "-":
                raise ParseError("negative exponent not allowed", tok.position)
            if tok.kind != "int":
                self.fail("expected a nonnegative integer exponent")
            self.advance()
            exponent, t = int(tok.text), len(base.terms)
            # The product of e terms taken from t with repetition has at
            # most C(e+t-1, t-1) distinct monomials.
            if t > 1 and math.comb(exponent + t - 1, t - 1) > MAX_POWER_TERMS:
                raise ValueError(
                    f"power would expand to more than {MAX_POWER_TERMS} terms "
                    f"(position {caret.position})"
                )
            base = base ** exponent
        return base

    def base(self) -> Polynomial:
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            numerator = int(tok.text)
            if self.peek().kind == "/":
                self.advance()
                den_tok = self.peek()
                if den_tok.kind != "int":
                    raise ParseError(
                        "divisor must be an integer literal", den_tok.position
                    )
                self.advance()
                if int(den_tok.text) == 0:
                    raise ParseError("zero denominator", den_tok.position)
                value = rat_normalize(numerator, int(den_tok.text))
            else:
                value = rat_normalize(numerator, 1)
            return Polynomial.constant(self.ctx, value)
        if tok.kind == "name":
            self.advance()
            if tok.text not in self.ctx.names:
                raise ParseError(f"unknown variable {tok.text!r}", tok.position)
            return Polynomial.variable(self.ctx, tok.text)
        if tok.kind == "(":
            self.advance()
            poly = self.expr()
            closing = self.peek()
            if closing.kind != ")":
                self.fail("expected ')'")
            self.advance()
            return poly
        self.fail("expected a number, variable, or '('")
        raise AssertionError("unreachable")


def parse_polynomial(text: str, ctx: VariableContext) -> Polynomial:
    """Parse one expression into a polynomial over ctx."""
    parser = _Parser(_tokenize(text), ctx)
    poly = parser.expr()
    tail = parser.peek()
    if tail.kind != "end":
        parser.fail("unexpected trailing input")
    return poly


def parse_system(texts: list[str], ctx: VariableContext) -> list[Polynomial]:
    """Parse a whole system; any bad expression rejects the lot."""
    return [parse_polynomial(t, ctx) for t in texts]


def format_polynomial(p: Polynomial, order: MonomialOrder) -> str:
    """Canonical text form: terms strictly decreasing under the order.

    Unit coefficients and unit exponents are suppressed; the zero
    polynomial prints as "0". The output re-parses to an equal
    polynomial, and equal polynomials format identically.
    """
    if p.is_zero():
        return "0"
    names = p.context.names
    chunks: list[str] = []
    for i, term in enumerate(sorted_terms(p, order)):
        c = term.coefficient
        magnitude = -c if c < 0 else c
        factors = [
            name if e == 1 else f"{name}^{e}"
            for name, e in zip(names, term.monomial)
            if e > 0
        ]
        if factors:
            body = "*".join(factors)
            if magnitude != 1:
                body = f"{magnitude}*{body}"
        else:
            body = str(magnitude)
        if i == 0:
            chunks.append(f"-{body}" if c < 0 else body)
        else:
            chunks.append(f" - {body}" if c < 0 else f" + {body}")
    return "".join(chunks)
