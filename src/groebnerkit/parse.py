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
its token's position by reading the text again. One loop,
``_Parser.expr``, reads every token once, and calls itself for each
``(``. It reads a term as a numerator, a denominator and a packed
monomial until a parenthesized factor, or a degree past the fields of
``START_WIDTH`` bits, makes it a ``Polynomial``; it builds the plain
terms that lead a sum at once, and adds each later term with ``_add``.
Each operation is charged, and each error raised, at its own token.
"""

from __future__ import annotations

import re
import sys
from itertools import islice
from math import comb, gcd
from typing import Iterator, NoReturn

from .order import MonomialOrder
from .ring import NAME, START_WIDTH, Polynomial, VariableContext, _add, _common, _lex, _lowest, _merge, _new, _multiply, _power, _square_and_multiply, _widen, _width

# A unit is about one product of two small ints into a packed term dict,
# some 0.3 us; an operation also takes some 1 to 4 us of reading that the
# units do not price. On one core of a 2-core Xeon VM the probe of most
# units, (x+y+z)^70 at 400,583, parses in 0.09 to 0.17 s, and
# (12345678901/98765432103)^27000, at 392,353, in 0.11 to 0.18 s: a power
# takes no gcd. Unpriced too are the gcds and divisions that bring a sum
# over its common denominator: (1/3)^100000*x + (1/5)^100000*y +
# (1/7)^100000*z, at 268,739 units, takes 1.3 to 1.4 s.
MAX_WORK = 450_000

# Characters in one text: Linux's limit on one argument, so any text that
# reaches the CLI as an argument is read. Reading takes some 1 to 1.5 us
# per summand or factor of a plain term, and 2 to 4 us where a
# parenthesized factor makes its term a Polynomial; at this length it
# stays under half a second.
MAX_TEXT = 131_072

# Each level of parentheses takes one frame of expr; 100 levels stay well
# under the default limit of 1000.
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

# The largest degree of a plain term, whose exponents fit the START_WIDTH
# bits of its packed fields, guard bit included; up to it a product's
# width is one _width call, as the chain of them in _multiply and _power
# gives it.
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

    def fail(self, message: str, index: int) -> NoReturn:
        tok = self.tokens[index]
        found = repr(tok) if tok else "end of input"
        raise ParseError(f"{message}, found {found}", self.position(index))

    def refuse(self, index: int) -> NoReturn:
        """The work has passed MAX_WORK at the operation of token index."""
        raise ValueError(f"expression would cost more than {MAX_WORK} units of work (position {self.position(index)})")

    def too_long(self, index: int) -> NoReturn:
        """The ValueError of int() on token index: it is all digits, so
        only CPython's digit limit raises one."""
        limit = sys.get_int_max_str_digits()
        raise ValueError(f"integer literal longer than {limit} digits (position {self.position(index)})") from None

    def plain(self, terms: list, dens: list, degree: int) -> Polynomial:
        """The sum of plain terms, each (monomial packed in START_WIDTH-bit
        fields, numerator) over its least denominator in dens and of
        degree at most degree <= _FIELD, merged in order over their common
        denominator (ring._common), as _add merges its summands, and
        repacked by ring._widen when degree needs wider fields."""
        den, met = _common(dens)
        numerators = _merge({}, [(m, c * (den // d)) for (m, c), d in zip(terms, dens)] if den > 1 else terms)
        return _widen(_lowest(self.ctx, numerators, den, degree, START_WIDTH, met), _width(START_WIDTH, degree))

    def single(self, num: int, den: int, monomial: int, degree: int) -> Polynomial:
        """The plain term num / den times monomial, as a Polynomial."""
        g = gcd(num, den)
        return self.plain([(monomial, num // g)], [den // g], degree)

    def expr(self) -> Polynomial:
        """The expr from token self.pos, read in one loop that leaves
        self.pos after it; a '(' recurses. A term is plain while it has no
        parenthesized factor and its degree stays within _FIELD: a
        numerator, a denominator and a packed monomial. From its first
        factor past that it is a Polynomial, the product of the plain
        factors before and each factor after, by _multiply and _power in
        token order. The sum's leading plain terms are one summand, each
        later term another, and _add meets them. num / den bounds the term
        and total / scale the sum so far (_measure). Each operation, even
        one of no cost, adds its cost to work and checks the budget before
        it computes."""
        tokens, weights, ctx = self.tokens, self.weights, self.ctx
        i, work = self.pos, self.work
        terms, dens, summands = [], [], []  # the leading plain terms, over dens; then each (Polynomial, negated)
        degree = total = sign = 0  # sign: the index of the term's '+' or '-', 0 for the first term
        scale, negated = 1, tokens[i] == "-"
        i += negated
        while True:
            num = den = 1
            monomial = term_degree = star = 0  # star: the index of the factor's '*', 0 for the first
            value = None
            while True:  # i is at the factor's first token, then at its last
                tok, rhs = tokens[i], None
                if tok.isdecimal():  # a number n / q of degree d = 0; every factor is nonnegative
                    try:
                        n = int(tok)
                    except ValueError:
                        self.too_long(i)
                    q, m, d = 1, 0, 0
                    if tokens[i + 1] == "/":
                        i += 2
                        if not tokens[i].isdecimal():
                            raise ParseError("divisor must be an integer literal", self.position(i))
                        try:
                            q = int(tokens[i])
                        except ValueError:
                            self.too_long(i)
                        if not q:
                            raise ParseError("zero denominator", self.position(i))
                        g = gcd(n, q)
                        n, q = n // g, q // g
                elif tok in weights:  # the variable of weight m, to the degree d
                    n, q, m, d = 1, 1, weights[tok], 1
                elif tok == "(":
                    self.depth += 1
                    if self.depth > MAX_DEPTH:
                        raise ParseError(f"parentheses nested deeper than {MAX_DEPTH}", self.position(i))
                    self.pos, self.work = i + 1, work
                    rhs = self.expr()
                    i, work = self.pos, self.work
                    if tokens[i] != ")":
                        self.fail("expected ')'", i)
                    self.depth -= 1
                elif NAME.match(tok):
                    raise ParseError(f"unknown variable {tok!r}", self.position(i))
                else:
                    self.fail("expected a number, variable, or '('", i)
                if tokens[i + 1] == "^":
                    caret, i = i + 1, i + 2
                    tok = tokens[i]
                    if not tok.isdecimal():
                        if tok == "-":
                            raise ParseError("negative exponent not allowed", self.position(i))
                        self.fail("expected a nonnegative integer exponent", i)
                    try:
                        e = int(tok)
                    except ValueError:
                        self.too_long(i)
                    if rhs is None:  # the base has one term: _bits(n, q)
                        t, bits = 1, (max(n, q) - 1).bit_length()
                    else:
                        t, bits = max(len(rhs._numerators), 1), _bits(*_measure(rhs))
                    if t > 1 or e * bits >= 2048:
                        for pairs, k in _power_steps(t, e):
                            work += pairs * (1 + (k * bits >> 11) ** 2)
                            if work > MAX_WORK:
                                self.refuse(caret)
                    elif e:  # a unit for each step of _square_and_multiply(e)
                        work += e.bit_length() + e.bit_count() - 1
                        if work > MAX_WORK:
                            self.refuse(caret)
                    if rhs is None:
                        n, q, d = n**e, q**e, d * e
                    else:
                        rhs = _power(rhs, e)
                if rhs is None and value is None and term_degree + d <= _FIELD:
                    num, den, monomial, term_degree = num * n, den * q, monomial + m * d, term_degree + d
                    if star:  # a unit between two nonzero factors under 2048 bits
                        work += (num and 1) if num <= _ONE_UNIT and den <= _ONE_UNIT else _cost(num and 1, num, den)
                        if work > MAX_WORK:
                            self.refuse(star)
                else:
                    if rhs is None:  # the number, or the variable to its degree, as the descent built it
                        rhs = _power(_new(ctx, {m: 1}, 1, 1, START_WIDTH), d) if m else _new(ctx, {0: n} if n else {}, q, 0, START_WIDTH)
                    if star and value is None:  # the plain factors before it, as one Polynomial
                        value = self.single(num, den, monomial, term_degree)
                    rhs_total, rhs_scale = _measure(rhs)
                    num, den = num * rhs_total, den * rhs_scale
                    if star:
                        work += _cost(len(value._numerators) * len(rhs._numerators), num, den)
                        if work > MAX_WORK:
                            self.refuse(star)
                        rhs = _multiply(value, rhs)
                    value = rhs
                if tokens[i + 1] != "*":
                    break
                star, i = i + 1, i + 2
            if tokens[i + 1] == "/":
                raise ParseError("division is only allowed between integer literals", self.position(i + 1))
            if value is None and summands:  # after a Polynomial summand, a plain term is one too
                value = self.single(num, den, monomial, term_degree)
            if value is None:
                count, g = num and 1, gcd(num, den)
                terms.append((monomial, (-num if negated else num) // g))
                dens.append(den // g)
                if term_degree > degree:
                    degree = term_degree
            else:
                count = len(value._numerators)
                summands.append((value, negated))
            if den == scale:
                total += num
            else:
                total, scale = _sum_bound((total, scale), (num, den))
            if sign:  # a summand after the first
                work += count if total <= _ONE_UNIT and scale <= _ONE_UNIT else _cost(count, total, scale)
                if work > MAX_WORK:
                    self.refuse(sign)
            tok = tokens[i + 1]
            if tok != "+" and tok != "-":
                break
            negated, sign, i = tok == "-", i + 1, i + 2
        self.pos, self.work = i + 1, work
        if terms:
            if not summands:
                return self.plain(terms, dens, degree)
            summands.insert(0, (self.plain(terms, dens, degree), False))
        if len(summands) > 1:
            return _add(summands)
        value, negated = summands[0]
        return -value if negated else value


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


def _cost(count: int, total: int, scale: int) -> int:
    """The units of count operations on coefficients within the bound
    (total, scale): count while both stay within _ONE_UNIT."""
    return count * (1 + (_bits(total, scale) >> 11) ** 2)


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
        parser.fail("unexpected trailing input", parser.pos)
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
