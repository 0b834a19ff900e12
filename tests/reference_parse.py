"""The recursive-descent parser as it was before the flat loop: the reference.

Tokens are (kind, text, position) tuples, every operation of the grammar
is a frame of the descent on ``Polynomial`` values, and each is priced
where it computes. It reads every text as ``groebnerkit.parse`` must:
the same value, or the same error at the same position, with the same
work. ``parse_polynomial`` returns that work next to the value, and its
budget is this module's ``MAX_WORK``.
"""

from __future__ import annotations

import math
import re
import sys
from typing import Iterator, Optional

from groebnerkit.parse import ParseError
from groebnerkit.ring import NAME, START_WIDTH, Polynomial, VariableContext, _add, _lowest, _multiply, _power, _square_and_multiply

MAX_WORK = 450_000
MAX_TEXT = 131_072
MAX_DEPTH = 100


# A token is (kind, text, position): kind "int", "name", one of "+-*/^()"
# or "end", and position the 1-based column of its first character.
_Token = tuple[str, str, int]

# Whitespace matches no alternative, so finditer skips it.
_TOKEN = re.compile(rf"(?P<int>\d+)|(?P<name>{NAME.pattern})|(?P<op>[-+*/^()])|(?P<bad>\S)")


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    for match in _TOKEN.finditer(text):
        kind, lexeme, position = match.lastgroup, match.group(), match.start() + 1
        if kind == "bad":
            raise ParseError(f"unexpected character {lexeme!r}", position)
        tokens.append((lexeme if kind == "op" else kind, lexeme, position))
    tokens.append(("end", "", len(text) + 1))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], ctx: VariableContext):
        self.tokens = tokens
        self.ctx = ctx
        self.pos = 0
        self.work = 0
        self.depth = 0
        self.variables: dict[str, Polynomial] = {}

    def kind(self) -> str:
        return self.tokens[self.pos][0]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str) -> None:
        kind, text, position = self.tokens[self.pos]
        if kind == "end":
            raise ParseError(f"{message}, found end of input", position)
        raise ParseError(f"{message}, found {text!r}", position)

    def charge(self, count: int, bits: int, tok: _Token) -> None:
        """Add count coefficient operations at up to bits bits to the work."""
        self.work += count * (1 + (bits >> 11) ** 2)
        if self.work > MAX_WORK:
            raise ValueError(f"expression would cost more than {MAX_WORK} units of work (position {tok[2]})")

    def expr(self) -> Polynomial:
        negate = self.kind() == "-"
        if negate:
            self.pos += 1
        value, bound = self.term()
        if self.kind() not in ("+", "-"):
            return -value if negate else value
        bound = bound or _measure(value)
        summands = [(value, negate)]
        while self.kind() in ("+", "-"):
            sign = self.advance()
            rhs, rhs_bound = self.term()
            bound = _sum_bound(bound, rhs_bound or _measure(rhs))
            self.charge(len(rhs._numerators), _bits(*bound), sign)
            summands.append((rhs, sign[0] == "-"))
        return _add(summands)

    def term(self) -> tuple[Polynomial, Optional[tuple[int, int]]]:
        """A product, and the bound of its coefficients if it has two factors or more."""
        value, bound = self.factor(), None
        while self.kind() == "*":
            star = self.advance()
            rhs = self.factor()
            total, scale = bound or _measure(value)
            rhs_total, rhs_scale = _measure(rhs)
            bound = total * rhs_total, scale * rhs_scale
            self.charge(len(value._numerators) * len(rhs._numerators), _bits(*bound), star)
            value = _multiply(value, rhs)
        if self.kind() == "/":
            raise ParseError("division is only allowed between integer literals", self.tokens[self.pos][2])
        return value, bound

    def factor(self) -> Polynomial:
        base = self.base()
        if self.kind() == "^":
            caret = self.advance()
            tok = self.tokens[self.pos]
            if tok[0] == "-":
                raise ParseError("negative exponent not allowed", tok[2])
            if tok[0] != "int":
                self.fail("expected a nonnegative integer exponent")
            self.pos += 1
            e, bits = _integer(tok), _bits(*_measure(base))
            for pairs, k in _power_steps(max(len(base._numerators), 1), e):
                self.charge(pairs, k * bits, caret)
            base = _power(base, e)
        return base

    def base(self) -> Polynomial:
        tok = self.tokens[self.pos]
        kind = tok[0]
        if kind == "int":
            self.pos += 1
            numerator, denominator = _integer(tok), 1
            if self.kind() == "/":
                self.pos += 1
                den_tok = self.tokens[self.pos]
                if den_tok[0] != "int":
                    raise ParseError("divisor must be an integer literal", den_tok[2])
                self.pos += 1
                denominator = _integer(den_tok)
                if denominator == 0:
                    raise ParseError("zero denominator", den_tok[2])
            return _lowest(self.ctx, {0: numerator} if numerator else {}, denominator, 0, START_WIDTH)
        if kind == "name":
            self.pos += 1
            name = tok[1]
            value = self.variables.get(name)
            if value is None:
                if name not in self.ctx.names:
                    raise ParseError(f"unknown variable {name!r}", tok[2])
                value = self.variables[name] = Polynomial.variable(self.ctx, name)
            return value
        if kind == "(":
            self.pos += 1
            self.depth += 1
            if self.depth > MAX_DEPTH:
                raise ParseError(f"parentheses nested deeper than {MAX_DEPTH}", tok[2])
            value = self.expr()
            if self.kind() != ")":
                self.fail("expected ')'")
            self.pos += 1
            self.depth -= 1
            return value
        self.fail("expected a number, variable, or '('")
        raise AssertionError("unreachable")


def _integer(tok: _Token) -> int:
    try:
        return int(tok[1])
    except ValueError:  # the token is all digits: only CPython's digit limit
        limit = sys.get_int_max_str_digits()
        raise ValueError(f"integer literal longer than {limit} digits (position {tok[2]})") from None


def _measure(value: Polynomial) -> tuple[int, int]:
    """The least bound (total, scale) of value. A bound has scale * value
    integral, its coefficients' absolute values summing to at most total, so
    total and scale bound its numerators and denominators; bounds multiply
    entrywise. The least scale is the denominator, since it is least."""
    return sum(map(abs, value._numerators.values())), value._den


def _sum_bound(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """The bound of p + q from a bound a of p and b of q, over the lcm of
    their scales; one gcd, and no division by a large scale."""
    g = math.gcd(a[1], b[1])
    return a[0] * (b[1] // g) + b[0] * (a[1] // g), a[1] // g * b[1]


def _bits(total: int, scale: int) -> int:
    """B with 2^B at least both entries of the bound; 0 for that of +-1."""
    return (max(total, scale) - 1).bit_length()


def _power_steps(t: int, e: int) -> Iterator[tuple[int, int]]:
    """Term pairs and degree of each product that ring._power makes for
    p^e, from the schedule it runs, p of t >= 1 terms; p^k has at most
    C(k+t-1, t-1) terms."""

    def terms(k: int) -> int:
        return math.comb(k + t - 1, t - 1)

    return ((terms(i) * terms(j), i + j) for i, j in _square_and_multiply(e))


def parse_polynomial(text: str, ctx: VariableContext) -> tuple[Polynomial, int]:
    """Parse one expression into a polynomial over ctx, and the work it took."""
    if len(text) > MAX_TEXT:
        raise ValueError(f"expression of {len(text)} characters is longer than the limit of {MAX_TEXT}")
    parser = _Parser(_tokenize(text), ctx)
    value = parser.expr()
    if parser.kind() != "end":
        parser.fail("unexpected trailing input")
    return value, parser.work
