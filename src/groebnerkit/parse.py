"""Text form of polynomials: a small expression grammar and its inverse.

Grammar (whitespace ignored, multiplication always explicit):

    expr     := ['-'] term (('+' | '-') term)*
    term     := factor ('*' factor)*
    factor   := base ('^' integer)?
    base     := integer ('/' integer)? | variable | '(' expr ')'
    integer  := decimal digits, exactly those int() reads
    variable := word characters, the first not a decimal digit

A literal ``integer/integer`` is the only division, and powers are
expanded. An error carries the 1-based position of the offending
character.

One budget, ``MAX_WORK``, covers the whole expression. Each ``+``, ``-``,
``*`` and ``^`` adds its cost to a running total before it computes, priced
from the exact sizes of its operands, and past the budget raises a
``ValueError`` (not a syntax error) at its position. An operation on
coefficients of up to b bits costs ``1 + (b >> 11)**2`` units: a product
makes one per pair of terms, a power one per pair in each of its
square-and-multiply steps, and a summand one per term, at the bits of the
running sum. Reading is not priced; ``MAX_TEXT``, ``MAX_DEPTH`` and
CPython's digit limit bound it.
"""

from __future__ import annotations

import math
import re
import sys
from typing import Iterator, NamedTuple, Optional

from .order import MonomialOrder
from .ring import NAME, START_WIDTH, Polynomial, VariableContext, _add, _lowest, _multiply, _power, _square_and_multiply

# A unit is about one product of two small ints into a packed term dict,
# some 0.3 us; an operation also takes some 5 to 12 us of reading that the
# units do not price. On one core of a 2-core Xeon VM the probe of most
# units, (x+y+z)^70 at 400,583, parses in 0.09 to 0.17 s, and
# (12345678901/98765432103)^27000, at 392,353, in 0.11 to 0.18 s: a power
# takes no gcd. Unpriced too are the gcds over a sum's common denominator:
# (1/3)^100000*x + (1/5)^100000*y + (1/7)^100000*z, at 268,739 units,
# takes about 1.9 s.
MAX_WORK = 450_000

# Characters in one text: Linux's limit on one argument, so any text that
# reaches the CLI as an argument is read. Reading takes some 11 to 14 us
# per summand or factor; at this length it stays under a second.
MAX_TEXT = 131_072

# Each level of parentheses takes four frames of the descent (base, expr,
# term, factor); 100 levels stay well under the default limit of 1000.
MAX_DEPTH = 100


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


class _Token(NamedTuple):
    kind: str  # "int" | "name" | one of "+-*/^()" | "end"
    text: str
    position: int  # 1-based column of the first character


# Whitespace matches no alternative, so finditer skips it.
_TOKEN = re.compile(rf"(?P<int>\d+)|(?P<name>{NAME.pattern})|(?P<op>[-+*/^()])|(?P<bad>\S)")


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
        self.work = 0
        self.depth = 0
        self.variables: dict[str, Polynomial] = {}

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

    def charge(self, count: int, bits: int, tok: _Token) -> None:
        """Add count coefficient operations at up to bits bits to the work."""
        self.work += count * (1 + (bits >> 11) ** 2)
        if self.work > MAX_WORK:
            raise ValueError(f"expression would cost more than {MAX_WORK} units of work (position {tok.position})")

    def expr(self) -> Polynomial:
        negate = self.peek().kind == "-"
        if negate:
            self.advance()
        value, bound = self.term()
        if self.peek().kind not in ("+", "-"):
            return -value if negate else value
        bound = bound or _measure(value)
        summands = [(value, negate)]
        while self.peek().kind in ("+", "-"):
            sign = self.advance()
            rhs, rhs_bound = self.term()
            bound = _sum_bound(bound, rhs_bound or _measure(rhs))
            self.charge(len(rhs._numerators), _bits(*bound), sign)
            summands.append((rhs, sign.kind == "-"))
        return _add(summands)

    def term(self) -> tuple[Polynomial, Optional[tuple[int, int]]]:
        """A product, and the bound of its coefficients if it has two factors or more."""
        value, bound = self.factor(), None
        while self.peek().kind == "*":
            star = self.advance()
            rhs = self.factor()
            total, scale = bound or _measure(value)
            rhs_total, rhs_scale = _measure(rhs)
            bound = total * rhs_total, scale * rhs_scale
            self.charge(len(value._numerators) * len(rhs._numerators), _bits(*bound), star)
            value = _multiply(value, rhs)
        if self.peek().kind == "/":
            raise ParseError("division is only allowed between integer literals", self.peek().position)
        return value, bound

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
            e, bits = _integer(tok), _bits(*_measure(base))
            for pairs, k in _power_steps(max(len(base._numerators), 1), e):
                self.charge(pairs, k * bits, caret)
            base = _power(base, e)
        return base

    def base(self) -> Polynomial:
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            numerator, denominator = _integer(tok), 1
            if self.peek().kind == "/":
                self.advance()
                den_tok = self.peek()
                if den_tok.kind != "int":
                    raise ParseError("divisor must be an integer literal", den_tok.position)
                self.advance()
                denominator = _integer(den_tok)
                if denominator == 0:
                    raise ParseError("zero denominator", den_tok.position)
            return _lowest(self.ctx, {0: numerator} if numerator else {}, denominator, 0, START_WIDTH)
        if tok.kind == "name":
            self.advance()
            value = self.variables.get(tok.text)
            if value is None:
                if tok.text not in self.ctx.names:
                    raise ParseError(f"unknown variable {tok.text!r}", tok.position)
                value = self.variables[tok.text] = Polynomial.variable(self.ctx, tok.text)
            return value
        if tok.kind == "(":
            self.advance()
            self.depth += 1
            if self.depth > MAX_DEPTH:
                raise ParseError(f"parentheses nested deeper than {MAX_DEPTH}", tok.position)
            value = self.expr()
            if self.peek().kind != ")":
                self.fail("expected ')'")
            self.advance()
            self.depth -= 1
            return value
        self.fail("expected a number, variable, or '('")
        raise AssertionError("unreachable")


def _integer(tok: _Token) -> int:
    try:
        return int(tok.text)
    except ValueError:  # the token is all digits: only CPython's digit limit
        limit = sys.get_int_max_str_digits()
        raise ValueError(f"integer literal longer than {limit} digits (position {tok.position})") from None


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


def parse_polynomial(text: str, ctx: VariableContext) -> Polynomial:
    """Parse one expression into a polynomial over ctx."""
    if len(text) > MAX_TEXT:
        raise ValueError(f"expression of {len(text)} characters is longer than the limit of {MAX_TEXT}")
    parser = _Parser(_tokenize(text), ctx)
    value = parser.expr()
    if parser.peek().kind != "end":
        parser.fail("unexpected trailing input")
    return value


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
    names, terms = p.context.names, p.terms
    chunks: list[str] = []
    for i, monomial in enumerate(sorted(terms, key=order.key_function(), reverse=True), 1):
        c = terms[monomial]
        magnitude = -c if c < 0 else c
        factors = [
            name if e == 1 else f"{name}^{_digits(e, f'exponent of {name}', i)}"
            for name, e in zip(names, monomial)
            if e > 0
        ]
        if magnitude != 1 or not factors:
            what = f"coefficient of {'*'.join(factors)}" if factors else "constant term"
            factors.insert(0, _digits(magnitude, what, i))
        body = "*".join(factors)
        sign = ("-" if c < 0 else "") if i == 1 else (" - " if c < 0 else " + ")
        chunks.append(sign + body)
    return "".join(chunks)


def _digits(value, what: str, term: int) -> str:
    """str(value), or a ValueError naming the term past CPython's digit limit."""
    try:
        return str(value)
    except ValueError:  # only CPython's digit limit: the value is a number
        limit = sys.get_int_max_str_digits()
        raise ValueError(f"{what} longer than {limit} digits (term {term})") from None
