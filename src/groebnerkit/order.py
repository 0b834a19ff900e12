"""Monomial orders and leading-term projections.

Three total, multiplicative well-orders on monomials of a fixed arity:

- ``lex``: compare exponent vectors left to right.
- ``grlex``: compare total degree, break ties by lex.
- ``grevlex``: compare total degree, break ties by the last nonzero
  entry of the exponent difference (negative entry means larger).

Each order is realized as a key function; ``compare`` and every sort
on ``Monomial`` tuples go through the same key, so display order and
algorithm order can never disagree. ``divide`` orders its terms by the
packed key below instead, and ``tests/test_order.py::TestPacking``
checks that the two keys compare alike.

Each order also has a packed form, which the division kernel works in
(Bachmann and Schoenemann, "Monomial representations for Groebner bases
computations", 1998). ``order.packing(nvars, width)`` lays a monomial
out as one ``int`` of fixed-width fields, the top bit of each field a
guard bit that a valid monomial leaves clear:

- ``lex``: the exponents, the first variable's in the top field.
- ``grlex``: the total degree in the top field, then the exponents as
  for lex.
- ``grevlex``: the total degree in the top field, then the exponents in
  reversed variable order, the last variable's just under the degree.

Packing is additive, so a product is the sum ``a + b``. A divides b
exactly when ``((b | G) - a) & G == G`` for the guard mask G: each
field's guard survives the subtraction just when b's exponent there is
at least a's, and no borrow crosses a field. The order key of a packed
monomial is an ``int`` that compares as the order does: the packed
value itself for lex and grlex, and ``2*(P & degree_bits) - P``, the
degree less the reversed exponents, for grevlex, where a larger exponent
of a later variable makes the monomial smaller. The key is additive too.
The lcm takes each exponent field's larger value by the same guard
trick, and under a graded order recomputes the degree field: it is
``a + b - gcd``, the gcd's degree summed across its fields by one
multiplication. All of this holds while no field reaches its guard bit;
a caller picks the width from its inputs' degrees and checks the guard
bits of what it builds. ``repack`` moves a packed monomial into fields
of another width, integer to integer.
"""

from __future__ import annotations

import enum
import functools
from operator import mul
from typing import Callable

from .ring import Monomial, Polynomial, Term, _valid_monomial


def _lex_key(m: Monomial):
    return m


def _grlex_key(m: Monomial):
    return (sum(m), m)


def _grevlex_key(m: Monomial):
    return (sum(m), tuple(-e for e in reversed(m)))


class MonomialOrder(enum.Enum):
    LEX = "lex"
    GRLEX = "grlex"
    GREVLEX = "grevlex"

    def key_function(self) -> Callable[[Monomial], object]:
        return _KEYS[self]

    def compare(self, a: Monomial, b: Monomial) -> int:
        """Total-order comparison: -1, 0, or 1 for a <, =, > b."""
        if len(a) != len(b):
            raise ValueError("arity mismatch")
        key = _KEYS[self]
        ka, kb = key(a), key(b)
        return (ka > kb) - (ka < kb)

    @functools.lru_cache(maxsize=64)
    def packing(self, nvars: int, width: int) -> "Packing":
        """The packed form of monomials in nvars variables, in fields of
        width bits, guard bit included."""
        return Packing(self, nvars, width)


class Packing:
    """One order's packed form of the monomials of a fixed arity.

    See the module docstring for the layout. ``nvars`` is the arity and
    ``width`` the field width, guard bit included. ``guards`` is the mask of
    the guard bits; a packed value that has any of them set is not a
    monomial of this packing. ``graded`` says whether the top field holds
    the total degree.
    """

    __slots__ = (
        "nvars", "width", "guards", "graded", "_weights", "_shifts", "_top", "_degree_bits", "_ones", "_exponents"
    )

    def __init__(self, order: MonomialOrder, nvars: int, width: int):
        if width < 2:
            raise ValueError("field width must leave room for a guard bit")
        graded = order is not MonomialOrder.LEX
        top = nvars * width  # the degree field's shift, when there is one
        # The field of variable i counts from the low end of the int.
        fields = range(nvars) if order is MonomialOrder.GREVLEX else range(nvars - 1, -1, -1)
        self.nvars, self.width, self.graded = nvars, width, graded
        self._top = top
        self._shifts = tuple(width * f for f in fields)
        # Each exponent adds itself to its own field and, under a graded
        # order, to the degree field.
        self._weights = tuple((1 << s) + (graded << top) for s in self._shifts)
        self.guards = sum(1 << (width * f + width - 1) for f in range(nvars + graded))
        self._degree_bits = ((1 << width) - 1) << top if order is MonomialOrder.GREVLEX else 0
        # The lowest bit of each exponent field, and the exponent fields.
        self._ones = sum(1 << s for s in self._shifts)
        self._exponents = (1 << top) - 1

    def pack(self, m: Monomial) -> int:
        return sum(map(mul, m, self._weights))

    def unpack(self, packed: int) -> Monomial:
        mask = (1 << self.width) - 1
        return _valid_monomial((packed >> s) & mask for s in self._shifts)

    def key(self, packed: int) -> int:
        """The order key: a < b under the order iff key(a) < key(b)."""
        if not self._degree_bits:
            return packed
        return 2 * (packed & self._degree_bits) - packed

    def unkey(self, key: int) -> int:
        """The packed monomial whose order key is key."""
        if not self._degree_bits:
            return key
        # key = D - R with D the degree field in place and 0 <= R < 2^top,
        # so D is key rounded up to a multiple of 2^top.
        top = self._top
        degree = -(-key >> top) << top
        return 2 * degree - key

    def divides(self, a: int, b: int) -> bool:
        guards = self.guards
        return ((b | guards) - a) & guards == guards

    def coprime(self, a: int, b: int) -> bool:
        """Whether a and b share no variable."""
        # A field's guard survives taking one away just when it is not 0.
        guards, ones = self.guards, self._ones
        return not ((a | guards) - ones) & ((b | guards) - ones) & guards & self._exponents

    def lcm(self, a: int, b: int) -> int:
        """The least common multiple, when it fits the fields."""
        width = self.width
        larger = ((a | self.guards) - b) & self.guards  # the guards of the fields where a >= b
        # The gcd's exponents: b's fields where a's are larger, a's elsewhere.
        gcd = (a ^ ((a ^ b) & (larger - (larger >> (width - 1))))) & self._exponents
        if self.graded:
            top = self._top
            # The degree is the top exponent field of gcd * ones. Every
            # partial sum of the gcd's exponents is at most its degree,
            # which fits a field, so no field carries into another.
            gcd += (((gcd * self._ones) >> (top - width)) & ((1 << width) - 1)) << top
        return a + b - gcd

    def degree(self, packed: int) -> int:
        """The total degree."""
        if self.graded:
            return packed >> self._top
        mask = (1 << self.width) - 1
        return sum((packed >> s) & mask for s in self._shifts)

    def repack(self, packed: int, other: "Packing") -> int:
        """The monomial packed in other, an order's packing of the same
        arity in fields wide enough for it."""
        mask = (1 << self.width) - 1
        moved = sum(((packed >> s) & mask) << t for s, t in zip(self._shifts, other._shifts))
        return moved + ((packed >> self._top) << other._top if self.graded else 0)


_KEYS = {
    MonomialOrder.LEX: _lex_key,
    MonomialOrder.GRLEX: _grlex_key,
    MonomialOrder.GREVLEX: _grevlex_key,
}

LEX = MonomialOrder.LEX
GRLEX = MonomialOrder.GRLEX
GREVLEX = MonomialOrder.GREVLEX


def leading_term(p: Polynomial, order: MonomialOrder) -> Term:
    if p.is_zero():
        raise ValueError("leading term of zero polynomial")
    m = max(p.terms, key=order.key_function())
    return Term(p.terms[m], m)


def sorted_terms(p: Polynomial, order: MonomialOrder) -> list[Term]:
    """Terms of p sorted under the order, largest first."""
    monomials = sorted(p.terms, key=order.key_function(), reverse=True)
    return [Term(p.terms[m], m) for m in monomials]
