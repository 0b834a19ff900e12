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
makes one per pair of terms, a power one per pair in each of its
square-and-multiply steps, and a summand one per term, at the bits of the
running sum. A literal longer than CPython reads is refused the same way.
Parentheses nest at most ``MAX_DEPTH`` deep, so the recursive descent stays
far inside the interpreter's recursion limit; a ``(`` past that depth is a
syntax error at its position. Output is held to the same digit limit as
input: ``format_polynomial`` refuses a coefficient or exponent that CPython
would not print, naming its term. Reading is not priced, so a text longer
than ``MAX_TEXT`` characters is refused with a ``ValueError`` before it is
read.

The parser evaluates on packed integers, not on ``Polynomial``. A value is
a dict from a monomial packed under lex (``order.Packing``) to an integer
numerator, one denominator that is least (no prime divides it and every
numerator), a bound on its total degree and its own field width. A
product cancels each operand's content against the other's denominator,
as ``Fraction`` does, and is least again by Gauss's lemma; a power needs
no gcd; a sum takes one, at the end of its ``expr``. An operation whose
degree bound outgrows its operands' fields repacks those operands, into
fields at least twice as wide. ``parse_polynomial`` builds the
``Polynomial`` once, with its terms in the order that ``Polynomial``
arithmetic on the same expression gives them.
"""

from __future__ import annotations

import math
import numbers
import re
import sys
from fractions import Fraction
from typing import Iterator, NamedTuple, Optional

from .order import LEX, MonomialOrder, sorted_terms
from .ring import NAME, Polynomial, VariableContext, _merge, _square_and_multiply

# A unit is about one product of two small ints into a packed term dict,
# some 0.3 us; an operation also takes some 5 to 12 us of reading that the
# units do not price. On one core of a 2-core Xeon VM the probe of most
# units, (x+y+z)^70 at 400,583, parses in 0.09 to 0.17 s, and
# (12345678901/98765432103)^27000, at 392,353, in 0.11 to 0.18 s: its one
# coefficient reaches Fraction in lowest terms, with no gcd (_Lowest). Unpriced too are the
# gcds over a sum's common denominator: (1/3)^100000*x + (1/5)^100000*y +
# (1/7)^100000*z, at 268,739 units, takes 2.3 to 3 s.
MAX_WORK = 450_000

# Characters in one text: Linux's limit on one argument, so any text that
# reaches the CLI as an argument is read. Reading takes some 11 to 14 us
# per summand or factor; at this length it stays under a second.
MAX_TEXT = 131_072

# Each level of parentheses takes four frames of the descent (base, expr,
# term, factor); 100 levels stay well under the default limit of 1000.
MAX_DEPTH = 100

# The field width, guard bit included, of a variable or a literal; a value
# is repacked into wider fields when an operation's degree needs them.
START_WIDTH = 8


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


class _Packed(NamedTuple):
    """A polynomial while it is parsed: integer numerators over one
    denominator, keyed by monomials packed under lex in fields of width
    bits, and a bound on its total degree. den is least, that is
    gcd(den, every numerator) == 1; the zero polynomial has den 1."""

    terms: dict  # packed monomial -> nonzero int
    den: int
    degree: int
    width: int


class _Lowest(NamedTuple):
    """A fraction known to be in lowest terms, its denominator positive.
    Fraction reads a numbers.Rational's numerator and denominator as they
    are, so Fraction(_Lowest(n, d)) makes no gcd of the two."""

    numerator: int
    denominator: int


numbers.Rational.register(_Lowest)


class _Parser:
    def __init__(self, tokens: list[_Token], ctx: VariableContext):
        self.tokens = tokens
        self.ctx = ctx
        self.pos = 0
        self.work = 0
        self.depth = 0
        self.variables: dict[str, _Packed] = {}

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

    def expr(self) -> _Packed:
        negate = self.peek().kind == "-"
        if negate:
            self.advance()
        value, bound = self.term()
        if self.peek().kind not in ("+", "-"):
            return value._replace(terms={m: -c for m, c in value.terms.items()}) if negate else value
        bound = bound or _measure(value)
        summands = [(value, negate)]
        while self.peek().kind in ("+", "-"):
            sign = self.advance()
            rhs, rhs_bound = self.term()
            bound = _sum_bound(bound, rhs_bound or _measure(rhs))
            self.charge(len(rhs.terms), _bits(*bound), sign)
            summands.append((rhs, sign.kind == "-"))
        return self.add(summands)

    def term(self) -> tuple[_Packed, Optional[tuple[int, int]]]:
        """A product, and the bound of its coefficients if it has two factors or more."""
        value, bound = self.factor(), None
        while self.peek().kind == "*":
            star = self.advance()
            rhs = self.factor()
            total, scale = bound or _measure(value)
            rhs_total, rhs_scale = _measure(rhs)
            bound = total * rhs_total, scale * rhs_scale
            self.charge(len(value.terms) * len(rhs.terms), _bits(*bound), star)
            value = self.multiply(value, rhs)
        if self.peek().kind == "/":
            raise ParseError("division is only allowed between integer literals", self.peek().position)
        return value, bound

    def factor(self) -> _Packed:
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
            base = self.power(base, e)
        return base

    def base(self) -> _Packed:
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
            g = math.gcd(numerator, denominator)
            return _Packed({0: numerator // g} if numerator else {}, denominator // g, 0, START_WIDTH)
        if tok.kind == "name":
            self.advance()
            value = self.variables.get(tok.text)
            if value is None:
                if tok.text not in self.ctx.names:
                    raise ParseError(f"unknown variable {tok.text!r}", tok.position)
                exponents = [0] * len(self.ctx)
                exponents[self.ctx.index(tok.text)] = 1
                packed = LEX.packing(len(self.ctx), START_WIDTH).pack(exponents)
                value = self.variables[tok.text] = _Packed({packed: 1}, 1, 1, START_WIDTH)
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

    # ---- arithmetic on packed values, in the term order Polynomial's own gives

    def widen(self, value: _Packed, width: int) -> _Packed:
        """value in fields of width bits, if they are wider than its own."""
        if width <= value.width:
            return value
        unpack, pack = LEX.packing(len(self.ctx), value.width).unpack, LEX.packing(len(self.ctx), width).pack
        return _Packed({pack(unpack(m)): c for m, c in value.terms.items()}, value.den, value.degree, width)

    def add(self, summands: list[tuple[_Packed, bool]]) -> _Packed:
        """The sum of (value, negated) pairs, over the least common
        denominator, then divided by its one gcd with every numerator."""
        den = math.lcm(*[v.den for v, _ in summands])
        width = max([v.width for v, _ in summands])
        terms: dict = {}
        for value, negated in summands:
            scale = -(den // value.den) if negated else den // value.den
            _merge(terms, [(m, c * scale) for m, c in self.widen(value, width).terms.items()])
        g = math.gcd(den, *terms.values()) if den > 1 else 1
        if g > 1:
            terms, den = {m: c // g for m, c in terms.items()}, den // g
        return _Packed(terms, den, max([v.degree for v, _ in summands]), width)

    def multiply(self, a: _Packed, b: _Packed) -> _Packed:
        """a * b, cross-cancelled as Fraction multiplies: with a and b least
        the product is least (Gauss's lemma). A den of 1 takes no gcd."""
        g1 = math.gcd(b.den, *a.terms.values()) if b.den > 1 else 1
        g2 = math.gcd(a.den, *b.terms.values()) if a.den > 1 else 1
        if g1 > 1 or g2 > 1:
            a = _Packed({m: c // g1 for m, c in a.terms.items()}, a.den // g2, a.degree, a.width)
            b = _Packed({m: c // g2 for m, c in b.terms.items()}, b.den // g1, b.degree, b.width)
        return self.times(a, b)

    def power(self, base: _Packed, e: int) -> _Packed:
        """base^e by the square-and-multiply schedule that _power_steps prices."""
        base = self.widen(base, _width(base.width, base.degree * e))
        result = _Packed({0: 1}, 1, 0, base.width)
        for i, j in _square_and_multiply(e):
            if i == j:
                base = self.times(base, base)
            else:
                result = self.times(result, base)
        return result

    def times(self, a: _Packed, b: _Packed) -> _Packed:
        """a * b, numerators and denominators multiplied with no gcd."""
        degree = a.degree + b.degree
        width = _width(max(a.width, b.width), degree)
        a, b = self.widen(a, width), self.widen(b, width)
        terms: dict = {}
        pairs = b.terms.items()
        for m1, c1 in a.terms.items():
            for m2, c2 in pairs:
                m = m1 + m2
                acc = terms.get(m)
                if acc is None:
                    terms[m] = c1 * c2
                else:
                    acc += c1 * c2
                    if acc:
                        terms[m] = acc
                    else:
                        del terms[m]
        return _Packed(terms, a.den * b.den, degree, width)


def _width(width: int, degree: int) -> int:
    """width, or twice it or more when its fields cannot hold degree."""
    return width if degree.bit_length() < width else max(2 * width, degree.bit_length() + 1)


def _integer(tok: _Token) -> int:
    try:
        return int(tok.text)
    except ValueError:  # the token is all digits: only CPython's digit limit
        limit = sys.get_int_max_str_digits()
        raise ValueError(f"integer literal longer than {limit} digits (position {tok.position})") from None


def _measure(value: _Packed) -> tuple[int, int]:
    """The least bound (total, scale) of value. A bound has scale * value
    integral, its coefficients' absolute values summing to at most total, so
    total and scale bound its numerators and denominators; bounds multiply
    entrywise. The least scale is den, since den is least."""
    return sum(map(abs, value.terms.values())), value.den


def _sum_bound(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """The bound of p + q from a bound a of p and b of q, over the lcm of
    their scales; one gcd, and no division by a large scale."""
    g = math.gcd(a[1], b[1])
    return a[0] * (b[1] // g) + b[0] * (a[1] // g), a[1] // g * b[1]


def _bits(total: int, scale: int) -> int:
    """B with 2^B at least both entries of the bound; 0 for that of +-1."""
    return (max(total, scale) - 1).bit_length()


def _power_steps(t: int, e: int) -> Iterator[tuple[int, int]]:
    """Term pairs and degree of each product that _Parser.power makes for
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
    unpack, den = LEX.packing(len(ctx), value.width).unpack, value.den
    if den == 1:
        terms = {unpack(m): Fraction(c) for m, c in value.terms.items()}
    elif len(value.terms) == 1:  # den is least, so coprime to the one numerator
        terms = {unpack(m): Fraction(_Lowest(c, den)) for m, c in value.terms.items()}
    else:
        terms = {unpack(m): Fraction(c, den) for m, c in value.terms.items()}
    return Polynomial(ctx)._wrap(terms)


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
