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

A token is its text, found by one ``findall`` once one search has
refused any character outside the grammar; an error or a refusal finds
its token's position by reading the text again. Each ``expr`` first
tries one loop over the tokens up to the ``)`` or the end that closes it
(``_Parser.flat``): when no ``(`` comes first and every operation there
costs one unit, it reads each term as a numerator, a denominator and a
packed monomial and builds the sum once. Otherwise it consumes and
charges nothing, and the recursive descent reads the span, with the
same value, error, position and work.
"""

from __future__ import annotations

import re
import sys
from itertools import islice
from math import comb, gcd
from typing import Iterator, Optional

from .order import MonomialOrder
from .ring import NAME, START_WIDTH, Polynomial, VariableContext, _add, _common, _lex, _lowest, _merge, _new, _multiply, _power, _square_and_multiply, _width

# A unit is about one product of two small ints into a packed term dict,
# some 0.3 us; an operation also takes some 5 to 12 us of reading that the
# units do not price. On one core of a 2-core Xeon VM the probe of most
# units, (x+y+z)^70 at 400,583, parses in 0.09 to 0.17 s, and
# (12345678901/98765432103)^27000, at 392,353, in 0.11 to 0.18 s: a power
# takes no gcd. Unpriced too are the gcds and divisions that bring a sum
# over its common denominator: (1/3)^100000*x + (1/5)^100000*y +
# (1/7)^100000*z, at 268,739 units, takes 1.3 to 1.4 s.
MAX_WORK = 450_000

# Characters in one text: Linux's limit on one argument, so any text that
# reaches the CLI as an argument is read. Reading takes some 1.5 us per
# summand or factor of a span without parentheses, and 7 to 13 us in the
# descent; at this length it stays under half a second.
MAX_TEXT = 131_072

# Each level of parentheses takes four frames of the descent (base, expr,
# term, factor); 100 levels stay well under the default limit of 1000.
MAX_DEPTH = 100


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


# A token is its text: an integer, a name or one of "+-*/^()"; "" ends the
# list. findall skips whitespace, which matches no alternative, once one
# search has refused any character that no token takes.
_TOKEN = re.compile(rf"\d+|{NAME.pattern}|[-+*/^()]")
_OUTSIDE = re.compile(r"[^\w\s+\-*/^()]")

# A bound of at most 2^2047 has _bits under 2048: an operation costs a unit.
_ONE_UNIT = 1 << 2047

# The largest exponent that fields of START_WIDTH bits hold, guard bit
# included, in which flat() packs; a degree up to it has its width from
# one _width call, as a chain of them in the descent gives it.
_FIELD = (1 << START_WIDTH) - 1


class _Parser:
    def __init__(self, text: str, ctx: VariableContext):
        bad = _OUTSIDE.search(text)
        if bad:
            raise ParseError(f"unexpected character {bad.group()!r}", bad.start() + 1)
        self.text = text
        self.tokens = _TOKEN.findall(text) + [""]
        self.ctx = ctx
        self.pos = self.work = self.depth = 0
        self.weights = dict(zip(ctx.names, _lex(len(ctx), START_WIDTH)._weights))

    def position(self, index: int) -> int:
        """The 1-based column of token index, found by reading the text again."""
        match = next(islice(_TOKEN.finditer(self.text), index, None), None)
        return match.start() + 1 if match else len(self.text) + 1

    def fail(self, message: str) -> None:
        tok = self.tokens[self.pos]
        found = repr(tok) if tok else "end of input"
        raise ParseError(f"{message}, found {found}", self.position(self.pos))

    def charge(self, count: int, bits: int, index: int) -> None:
        """Add count coefficient operations at up to bits bits to the work."""
        self.work += count * (1 + (bits >> 11) ** 2)
        if self.work > MAX_WORK:
            raise ValueError(f"expression would cost more than {MAX_WORK} units of work (position {self.position(index)})")

    def integer(self, index: int) -> int:
        try:
            return int(self.tokens[index])
        except ValueError:  # the token is all digits: only CPython's digit limit
            limit = sys.get_int_max_str_digits()
            raise ValueError(f"integer literal longer than {limit} digits (position {self.position(index)})") from None

    def flat(self) -> Optional[Polynomial]:
        """The expr from here, read in one loop when no '(' comes before the
        ')' or the end that closes it and every operation in it costs one
        unit; else None, with nothing consumed or charged. Each term is a
        numerator, a denominator and a monomial packed in START_WIDTH-bit
        fields; the degree bound and field width follow the descent's, and
        the sum meets its denominators by ring._common, as _add does. A '*'
        between nonzero factors, each step of a power and each nonzero
        summand after the first costs a unit while its bound stays within
        _ONE_UNIT, so the work is the descent's."""
        tokens, weights, i = self.tokens, self.weights, self.pos
        terms, dens = [], []  # each nonzero term's (monomial, numerator), and its denominator
        cost = degree = total = 0  # total / scale: the bound of the sum so far
        scale, first, negated = 1, True, tokens[i] == "-"
        i += negated
        try:
            while True:
                # every factor is nonnegative: a term's sign is negated
                num, den, monomial, term_degree, star = 1, 1, 0, 0, False
                while True:  # i is at the factor's first token, then at its last
                    tok = tokens[i]
                    if tok.isdecimal():
                        n, q, m, d = int(tok), 1, 0, 0
                        if tokens[i + 1] == "/":
                            q = int(tokens[i + 2]) if tokens[i + 2].isdecimal() else 0
                            if not q:
                                return None
                            g = gcd(n, q)
                            n, q, i = n // g, q // g, i + 2
                    elif tok in weights:
                        n, q, m, d = 1, 1, weights[tok], 1
                    else:
                        return None
                    if tokens[i + 1] == "^":
                        e = int(tokens[i + 2]) if tokens[i + 2].isdecimal() else -1
                        if e < 0 or e * (max(n, q) - 1).bit_length() >= 2048:
                            return None
                        cost += e.bit_length() + e.bit_count() - (e > 0)  # the steps of _square_and_multiply(e)
                        n, q, m, d, i = n**e, q**e, m * e, d * e, i + 2
                    num, den, monomial, term_degree = num * n, den * q, monomial + m, term_degree + d
                    if star and num:  # a '*' between two nonzero factors
                        if num > _ONE_UNIT or den > _ONE_UNIT:
                            return None
                        cost += 1
                    if tokens[i + 1] != "*":
                        break
                    i, star = i + 2, True
                if term_degree > _FIELD:
                    return None
                if num:
                    g = gcd(num, den)
                    terms.append((monomial, (-num if negated else num) // g))
                    dens.append(den // g)
                if den == scale:
                    total += num
                else:
                    total, scale = _sum_bound((total, scale), (num, den))
                if num and not first:  # a summand after the first
                    if total > _ONE_UNIT or scale > _ONE_UNIT:
                        return None
                    cost += 1
                degree, first, tok = max(degree, term_degree), False, tokens[i + 1]
                if tok != "+" and tok != "-":
                    break
                negated, i = tok == "-", i + 2
        except ValueError:  # an integer past CPython's digit limit
            return None
        if (tok and tok != ")") or self.work + cost > MAX_WORK:
            return None
        self.work, self.pos = self.work + cost, i + 1
        den, met = _common(dens)
        numerators = _merge({}, [(m, c * (den // d)) for (m, c), d in zip(terms, dens)] if den > 1 else terms)
        width = _width(START_WIDTH, degree)
        if width > START_WIDTH:
            repack, wider = _lex(len(self.ctx), START_WIDTH).repack, _lex(len(self.ctx), width)
            numerators = {repack(m, wider): c for m, c in numerators.items()}
        return _lowest(self.ctx, numerators, den, degree, width, met)

    def expr(self) -> Polynomial:
        value = self.flat()
        if value is not None:
            return value
        tokens = self.tokens
        negate = tokens[self.pos] == "-"
        if negate:
            self.pos += 1
        value, bound = self.term()
        bound, summands = bound or _measure(value), [(value, negate)]
        while tokens[self.pos] in ("+", "-"):
            sign = self.pos
            self.pos += 1
            rhs, rhs_bound = self.term()
            bound = _sum_bound(bound, rhs_bound or _measure(rhs))
            self.charge(len(rhs._numerators), _bits(*bound), sign)
            summands.append((rhs, tokens[sign] == "-"))
        return _add(summands) if len(summands) > 1 else -value if negate else value

    def term(self) -> tuple[Polynomial, Optional[tuple[int, int]]]:
        """A product, and the bound of its coefficients if it has two factors or more."""
        tokens = self.tokens
        value, bound = self.factor(), None
        while tokens[self.pos] == "*":
            star = self.pos
            self.pos += 1
            rhs = self.factor()
            total, scale = bound or _measure(value)
            rhs_total, rhs_scale = _measure(rhs)
            bound = total * rhs_total, scale * rhs_scale
            self.charge(len(value._numerators) * len(rhs._numerators), _bits(*bound), star)
            value = _multiply(value, rhs)
        if tokens[self.pos] == "/":
            raise ParseError("division is only allowed between integer literals", self.position(self.pos))
        return value, bound

    def factor(self) -> Polynomial:
        base = self.base()
        if self.tokens[self.pos] == "^":
            caret = self.pos
            self.pos += 1
            tok = self.tokens[self.pos]
            if tok == "-":
                raise ParseError("negative exponent not allowed", self.position(self.pos))
            if not tok.isdecimal():
                self.fail("expected a nonnegative integer exponent")
            e, bits = self.integer(self.pos), _bits(*_measure(base))
            self.pos += 1
            for pairs, k in _power_steps(max(len(base._numerators), 1), e):
                self.charge(pairs, k * bits, caret)
            base = _power(base, e)
        return base

    def base(self) -> Polynomial:
        start = self.pos
        tok = self.tokens[start]
        if tok.isdecimal():
            self.pos += 1
            numerator, denominator = self.integer(start), 1
            if self.tokens[self.pos] == "/":
                self.pos += 1
                if not self.tokens[self.pos].isdecimal():
                    raise ParseError("divisor must be an integer literal", self.position(self.pos))
                denominator = self.integer(self.pos)
                if denominator == 0:
                    raise ParseError("zero denominator", self.position(self.pos))
                self.pos += 1
            return _lowest(self.ctx, {0: numerator} if numerator else {}, denominator, 0, START_WIDTH)
        if tok == "(":
            self.pos += 1
            self.depth += 1
            if self.depth > MAX_DEPTH:
                raise ParseError(f"parentheses nested deeper than {MAX_DEPTH}", self.position(start))
            value = self.expr()
            if self.tokens[self.pos] != ")":
                self.fail("expected ')'")
            self.pos += 1
            self.depth -= 1
            return value
        if NAME.match(tok):
            if tok not in self.weights:
                raise ParseError(f"unknown variable {tok!r}", self.position(start))
            self.pos += 1
            return _new(self.ctx, {self.weights[tok]: 1}, 1, 1, START_WIDTH)
        self.fail("expected a number, variable, or '('")
        raise AssertionError("unreachable")


def _measure(value: Polynomial) -> tuple[int, int]:
    """The least bound (total, scale) of value. A bound has scale * value
    integral, its coefficients' absolute values summing to at most total, so
    total and scale bound its numerators and denominators; bounds multiply
    entrywise. The least scale is the denominator, since it is least."""
    return sum(map(abs, value._numerators.values())), value._den


def _sum_bound(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """The bound of p + q from a bound a of p and b of q, over the lcm of
    their scales; one gcd, and no division by a large scale."""
    g = gcd(a[1], b[1])
    return a[0] * (b[1] // g) + b[0] * (a[1] // g), a[1] // g * b[1]


def _bits(total: int, scale: int) -> int:
    """B with 2^B at least both entries of the bound; 0 for that of +-1."""
    return (max(total, scale) - 1).bit_length()


def _power_steps(t: int, e: int) -> Iterator[tuple[int, int]]:
    """Term pairs and degree of each product that ring._power makes for
    p^e, from the schedule it runs, p of t >= 1 terms; p^k has at most
    C(k+t-1, t-1) terms."""

    def terms(k: int) -> int:
        return comb(k + t - 1, t - 1)

    return ((terms(i) * terms(j), i + j) for i, j in _square_and_multiply(e))


def parse_polynomial(text: str, ctx: VariableContext) -> Polynomial:
    """Parse one expression into a polynomial over ctx."""
    if len(text) > MAX_TEXT:
        raise ValueError(f"expression of {len(text)} characters is longer than the limit of {MAX_TEXT}")
    parser = _Parser(text, ctx)
    value = parser.expr()
    if parser.tokens[parser.pos]:
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
