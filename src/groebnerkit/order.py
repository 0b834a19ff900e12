"""Monomial orders and their packed form.

``lex`` compares exponent vectors left to right, ``grlex`` total degree
and then lex, and ``grevlex`` total degree and then the last nonzero
entry of the exponent difference, a negative entry meaning larger. An
order's key function orders ``Monomial`` tuples, and its packing's
``key`` orders packed ints alike (``tests/test_order.py::TestPacking``).

A packing (Bachmann and Schoenemann, "Monomial representations for
Groebner bases computations", 1998) lays a monomial out as one ``int`` of
fixed-width fields, the top bit of each a guard bit that a valid monomial
leaves clear:

- ``lex``: the exponents, the first variable's in the top field.
- ``grlex``: the total degree in the top field, then the exponents as
  for lex.
- ``grevlex``: the total degree in the top field, then the exponents in
  reversed variable order, the last variable's just under the degree.

Packing and the order key are additive, so a product is the sum
``a + b``. Products, ``divides``, ``lcm`` and ``key`` hold while no field
reaches its guard bit; a caller picks the width from its inputs' degrees
and checks the guard bits of what it builds.

A packing converts order keys to another packing's through one table
per target, ``keys_in(other)``: a dict from this packing's keys to
other's, each entry computed on its first lookup (unkey, repack, key)
and kept. Packings are interned (``MonomialOrder.packing``), so the
tables live as long as the packings and each monomial a process meets is
converted once per pair. A table is emptied when full: it holds at most
``_TABLE_SIZE`` entries while both packings' fields are at most
``START_WIDTH`` bits, and proportionally fewer for wider fields, so it
holds about as many bits whatever the width. Entries are pure functions
of their keys, so threads need no lock: two may fill one entry, with
equal values.
"""

from __future__ import annotations

import enum
import functools
from operator import mul
from typing import Callable

from .ring import START_WIDTH, Monomial, Polynomial, Term, _valid_monomial

# Most entries one conversion table between fields of at most START_WIDTH
# bits holds; a full table is emptied.
_TABLE_SIZE = 1 << 14


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

    @functools.lru_cache(maxsize=64)
    def packing(self, nvars: int, width: int) -> "Packing":
        """The packed form of monomials in nvars variables, in fields of
        width bits, guard bit included."""
        return Packing(self, nvars, width)


class Packing:
    """One order's packed form of the monomials of a fixed arity.

    See the module docstring for the layout. ``order`` is the order,
    ``nvars`` the arity and ``width`` the field width, guard bit included.
    ``guards`` is the mask of the guard bits; a packed value that has any
    of them set is not a monomial of this packing. ``graded`` says whether
    the top field holds the total degree. ``top`` is the shift of that
    field, or of the bits above the exponent fields under lex.
    """

    __slots__ = (
        "order", "nvars", "width", "guards", "graded", "top",
        "_weights", "_shifts", "_degree_bits", "_ones", "_exponents", "_tables",
    )

    def __init__(self, order: MonomialOrder, nvars: int, width: int):
        if width < 2:
            raise ValueError("field width must leave room for a guard bit")
        graded = order is not MonomialOrder.LEX
        top = nvars * width  # the degree field's shift, when there is one
        # The field of variable i counts from the low end of the int.
        fields = range(nvars) if order is MonomialOrder.GREVLEX else range(nvars - 1, -1, -1)
        self.order, self.nvars, self.width, self.graded = order, nvars, width, graded
        self.top = top
        self._shifts = tuple(width * f for f in fields)
        # Each exponent adds itself to its own field and, under a graded
        # order, to the degree field.
        self._weights = tuple((1 << s) + (graded << top) for s in self._shifts)
        self.guards = sum(1 << (width * f + width - 1) for f in range(nvars + graded))
        self._degree_bits = ((1 << width) - 1) << top if order is MonomialOrder.GREVLEX else 0
        # The lowest bit of each exponent field, and the exponent fields.
        self._ones = sum(1 << s for s in self._shifts)
        self._exponents = (1 << top) - 1
        self._tables = {}  # keys_in's tables, by target

    def pack(self, m: Monomial) -> int:
        return sum(map(mul, m, self._weights))

    def unpack(self, packed: int) -> Monomial:
        mask = (1 << self.width) - 1
        return _valid_monomial((packed >> s) & mask for s in self._shifts)

    def key(self, packed: int) -> int:
        """The order key: a < b under the order iff key(a) < key(b). Under
        grevlex it is the degree less the reversed exponents, so a larger
        exponent of a later variable makes the monomial smaller."""
        if not self._degree_bits:
            return packed
        return 2 * (packed & self._degree_bits) - packed

    def unkey(self, key: int) -> int:
        """The packed monomial whose order key is key. The division
        kernel (``division._reduce``) inlines a copy of it."""
        if not self._degree_bits:
            return key
        # key = D - R with D the degree field in place and 0 <= R < 2^top,
        # so D is key rounded up to a multiple of 2^top.
        top = self.top
        degree = -(-key >> top) << top
        return 2 * degree - key

    def divides(self, a: int, b: int) -> bool:
        """Whether a divides b: a field's guard bit survives (b | guards) - a
        just when b's exponent there is at least a's, and no borrow
        crosses a field."""
        guards = self.guards
        return ((b | guards) - a) & guards == guards

    def lcm(self, a: int, b: int) -> int:
        """The least common multiple, when it fits the fields."""
        width = self.width
        larger = ((a | self.guards) - b) & self.guards  # the guards of the fields where a >= b
        # The gcd's exponents: b's fields where a's are larger, a's elsewhere.
        gcd = (a ^ ((a ^ b) & (larger - (larger >> (width - 1))))) & self._exponents
        if self.graded:
            top = self.top
            # The degree is the top exponent field of gcd * ones. Every
            # partial sum of the gcd's exponents is at most its degree,
            # which fits a field, so no field carries into another.
            gcd += (((gcd * self._ones) >> (top - width)) & ((1 << width) - 1)) << top
        return a + b - gcd

    def largest(self, packed: int) -> int:
        """The largest field: the total degree under a graded order, else
        the largest exponent."""
        if self.graded:
            return packed >> self.top
        mask = (1 << self.width) - 1
        return max((packed >> s) & mask for s in self._shifts)

    def repack(self, packed: int, other: "Packing") -> int:
        """The monomial packed in other, a packing of the same arity, of
        any order, in fields wide enough for it."""
        mask = (1 << self.width) - 1
        return sum(map(mul, [(packed >> s) & mask for s in self._shifts], other._weights))

    def keys_in(self, other: "Packing") -> "_Table":
        """The table from this packing's order keys to other's, for
        monomials that fit both: other of the same arity, of any order."""
        table = self._tables.get(other)
        if table is None:
            table = self._tables.setdefault(other, _Table(self, other))
        return table


class _Table(dict):
    """Order keys of one packing to another's (``Packing.keys_in``)."""

    __slots__ = ("source", "target")

    def __init__(self, source: Packing, target: Packing):
        self.source, self.target = source, target

    def __missing__(self, k: int) -> int:
        source, target = self.source, self.target
        converted = target.key(source.repack(source.unkey(k), target))
        if len(self) >= _TABLE_SIZE * START_WIDTH // max(START_WIDTH, source.width, target.width):
            self.clear()
        self[k] = converted
        return converted


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
