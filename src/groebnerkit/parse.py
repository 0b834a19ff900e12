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

One budget, ``MAX_WORK``, covers the whole expression. Each ``+``, ``-``,
``*`` and ``^`` adds its cost to a running total before it computes, priced
from the exact sizes of its operands, and past the budget raises a
``ValueError`` (not a syntax error) at its position. An operation on
coefficients of up to b bits costs ``1 + (b >> 11)**2`` units: a product
makes one per pair of terms, a power one per pair in each step of
``Polynomial.__pow__``, and a summand one per term, at the bits of the
running sum. A literal longer than CPython reads is refused the same way.
Parentheses nest at most ``MAX_DEPTH`` deep, so the recursive descent stays
far inside the interpreter's recursion limit; a ``(`` past that depth is a
syntax error at its position. Output is held to the same digit limit as
input: ``format_polynomial`` refuses a coefficient or exponent that CPython
would not print, naming its term.
"""

from __future__ import annotations

import math
import re
import sys
from typing import Iterator, NamedTuple, Optional

from .order import MonomialOrder, sorted_terms
from .ring import NAME, Polynomial, VariableContext, _merge, _square_and_multiply, rat_normalize

# A unit is about one product of two small Fractions, some 3 us. On one
# core of a 2-core Xeon VM the slowest admitted probe, (x+y+z)^70 at 400,583
# units, parses in 1.1 to 1.4 s, and (12345678901/98765432103)^27000, at
# 392,353, in 0.7 to 0.8 s.
MAX_WORK = 450_000

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
        poly, bound = self.term()
        if negate:
            poly = -poly
        if self.peek().kind not in ("+", "-"):
            return poly
        bound = bound or _measure(poly)
        # One dict for the whole sum, where Polynomial.__add__ copies at each sign
        terms = dict(poly.terms)
        while self.peek().kind in ("+", "-"):
            sign = self.advance()
            rhs, rhs_bound = self.term()
            bound = _sum_bound(bound, rhs_bound or _measure(rhs))
            self.charge(len(rhs.terms), _bits(*bound), sign)
            _merge(terms, (-rhs if sign.kind == "-" else rhs).terms.items())
        return poly._wrap(terms)

    def term(self) -> tuple[Polynomial, Optional[tuple[int, int]]]:
        """A product, and the bound of its coefficients if it has two factors or more."""
        poly, bound = self.factor(), None
        while self.peek().kind == "*":
            star = self.advance()
            rhs = self.factor()
            total, scale = bound or _measure(poly)
            rhs_total, rhs_scale = _measure(rhs)
            bound = total * rhs_total, scale * rhs_scale
            self.charge(len(poly.terms) * len(rhs.terms), _bits(*bound), star)
            poly = poly * rhs
        if self.peek().kind == "/":
            raise ParseError("division is only allowed between integer literals", self.peek().position)
        return poly, bound

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
            for pairs, k in _power_steps(max(len(base.terms), 1), e):
                self.charge(pairs, k * bits, caret)
            base = base ** e
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
            return Polynomial.constant(self.ctx, rat_normalize(numerator, denominator))
        if tok.kind == "name":
            self.advance()
            poly = self.variables.get(tok.text)
            if poly is None:
                if tok.text not in self.ctx.names:
                    raise ParseError(f"unknown variable {tok.text!r}", tok.position)
                poly = self.variables[tok.text] = Polynomial.variable(self.ctx, tok.text)
            return poly
        if tok.kind == "(":
            self.advance()
            self.depth += 1
            if self.depth > MAX_DEPTH:
                raise ParseError(f"parentheses nested deeper than {MAX_DEPTH}", tok.position)
            poly = self.expr()
            if self.peek().kind != ")":
                self.fail("expected ')'")
            self.advance()
            self.depth -= 1
            return poly
        self.fail("expected a number, variable, or '('")
        raise AssertionError("unreachable")


def _integer(tok: _Token) -> int:
    try:
        return int(tok.text)
    except ValueError:  # the token is all digits: only CPython's digit limit
        limit = sys.get_int_max_str_digits()
        raise ValueError(f"integer literal longer than {limit} digits (position {tok.position})") from None


def _measure(p: Polynomial) -> tuple[int, int]:
    """The least bound (total, scale) of p. A bound has scale * p integral,
    its coefficients' absolute values summing to at most total, so total and
    scale bound p's numerators and denominators; bounds multiply entrywise."""
    coeffs = p.terms.values()
    scale = math.lcm(*[c.denominator for c in coeffs])
    return sum([abs(c.numerator) * (scale // c.denominator) for c in coeffs]), scale


def _sum_bound(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """The bound of p + q from a bound a of p and b of q."""
    scale = math.lcm(a[1], b[1])
    return a[0] * (scale // a[1]) + b[0] * (scale // b[1]), scale


def _bits(total: int, scale: int) -> int:
    """B with 2^B at least both entries of the bound; 0 for that of +-1."""
    return (max(total, scale) - 1).bit_length()


def _power_steps(t: int, e: int) -> Iterator[tuple[int, int]]:
    """Term pairs and degree of each product that Polynomial.__pow__ makes
    for p^e, from the schedule it runs, p of t >= 1 terms; p^k has at most
    C(k+t-1, t-1) terms."""

    def terms(k: int) -> int:
        return math.comb(k + t - 1, t - 1)

    return ((terms(i) * terms(j), i + j) for i, j in _square_and_multiply(e))


def parse_polynomial(text: str, ctx: VariableContext) -> Polynomial:
    """Parse one expression into a polynomial over ctx."""
    parser = _Parser(_tokenize(text), ctx)
    poly = parser.expr()
    if parser.peek().kind != "end":
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
    for i, term in enumerate(sorted_terms(p, order), 1):
        c = term.coefficient
        magnitude = -c if c < 0 else c
        factors = [
            name if e == 1 else f"{name}^{_digits(e, f'exponent of {name}', i)}"
            for name, e in zip(names, term.monomial)
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
