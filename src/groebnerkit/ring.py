"""Exact rational scalars and sparse multivariate polynomials.

A ``Polynomial`` fixes no term order. It holds one packed integer
layout: a dict from each monomial, packed under lex (``order.Packing``)
into one ``int``, to a nonzero integer numerator; one denominator, least
(positive, and no prime divides it and every numerator), so the zero
polynomial has denominator 1; the total degree of its terms, 0 for the
zero polynomial; and the field width, guard bit included: a function of
that degree alone (``_width``). So the layout is canonical: equal values
hold equal numerators in equal fields, whichever code built them, and
equality and hashing read the layout. The operators and the parser run
one arithmetic on it (``_add``, ``_multiply``, ``_power``), and the
division kernel builds its results in it (``division._built``). A
builder whose terms can cancel reads the degree off them again
(``_lowest``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, Mapping, Union

Rational = Fraction

Scalar = Union[int, Fraction]

# The field width, guard bit included, of every degree below 128.
START_WIDTH = 8


class RingMismatchError(ValueError):
    """Raised when values from different variable contexts are combined."""


def rat_normalize(numerator: int, denominator: int) -> Rational:
    """Canonical rational numerator/denominator.

    The sign is carried by the numerator, the pair is reduced to lowest
    terms, and zero comes out as 0/1.
    """
    if denominator == 0:
        raise ZeroDivisionError("zero denominator")
    return Fraction(numerator, denominator)


def _set(obj: object, **values) -> None:
    """Set attributes of a frozen record, past its frozen __setattr__."""
    for name, value in values.items():
        object.__setattr__(obj, name, value)


# A variable name: a letter or underscore, then letters, digits or
# underscores. The parser reads names by this pattern, so printed
# polynomials re-parse.
NAME = re.compile(r"[^\W\d]\w*")


@dataclass(frozen=True, init=False)
class VariableContext:
    """Ordered list of distinct variable names, each matching NAME.

    List position is the variable index; earlier names are the more
    significant ones for lex-style comparisons. A frozen record of its
    names, compared, hashed and pickled by value.
    """

    __slots__ = ("names",)

    names: tuple[str, ...]

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        if not names:
            raise ValueError("variable context must name at least one variable")
        for name in names:
            if not (isinstance(name, str) and NAME.fullmatch(name)):
                raise ValueError(
                    f"bad variable name {name!r}: a name is a letter or underscore, then letters, digits or underscores"
                )
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names: {names!r}")
        _set(self, names=names)

    def __reduce__(self):
        return VariableContext, (self.names,)

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self) -> Iterator[str]:
        return iter(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ValueError(f"unknown variable {name!r}") from None

    def __repr__(self) -> str:
        return f"VariableContext({list(self.names)!r})"


class Monomial(tuple):
    """Exponent vector of a power product; immutable and hashable.

    Multiplication adds exponents, division subtracts them (and requires
    divisibility), ``lcm`` takes the componentwise maximum. Exponents are
    checked where they enter, in the constructor; products, quotients
    and lcms of valid vectors are valid and skip the check.
    """

    __slots__ = ()

    def __new__(cls, exponents: Iterable[int]) -> "Monomial":
        self = super().__new__(cls, exponents)
        for e in self:
            if not isinstance(e, int) or e < 0:
                raise ValueError(f"exponents must be nonnegative integers, got {tuple(self)!r}")
        return self

    @property
    def degree(self) -> int:
        return sum(self)

    def _check_arity(self, other: "Monomial") -> None:
        if len(self) != len(other):
            raise ValueError("arity mismatch")

    def __mul__(self, other: "Monomial") -> "Monomial":  # type: ignore[override]
        if not isinstance(other, Monomial):
            return NotImplemented
        self._check_arity(other)
        return _valid_monomial(a + b for a, b in zip(self, other))

    def __rmul__(self, other: object) -> "Monomial":  # type: ignore[override]
        return NotImplemented

    def __truediv__(self, other: "Monomial") -> "Monomial":
        if not other.divides(self):
            raise ValueError(f"{other!r} does not divide {self!r}")
        return _valid_monomial(a - b for a, b in zip(self, other))

    def divides(self, other: "Monomial") -> bool:
        self._check_arity(other)
        return all(a <= b for a, b in zip(self, other))

    def lcm(self, other: "Monomial") -> "Monomial":
        self._check_arity(other)
        return _valid_monomial(max(a, b) for a, b in zip(self, other))

    def __repr__(self) -> str:
        return f"Monomial({tuple(self)!r})"


def _valid_monomial(exponents: Iterable[int]) -> Monomial:
    """A Monomial from exponents already known to be nonnegative integers."""
    return tuple.__new__(Monomial, exponents)


def _merge(out: dict, terms: Iterable[tuple]) -> dict:
    """Add (monomial, coefficient) pairs into out and return it. No zero
    coefficient is kept, and a merged term keeps its place in the dict."""
    for m, c in terms:
        acc = out.get(m)
        if acc is None:
            if c:
                out[m] = c
        else:
            acc = acc + c
            if acc:
                out[m] = acc
            else:
                del out[m]
    return out


def _square_and_multiply(e: int) -> Iterator[tuple[int, int]]:
    """The products p^i * p^j, as (i, j), that p^e takes, in order: the
    result p^i times the base p^j for each set bit of e, from the lowest,
    and the base squared (i == j) while higher bits remain."""
    low, high = 0, 1  # the result is p^low, and the base p^high
    while e:
        if e & 1:
            yield low, high
            low += high
        if e > 1:
            yield high, high
            high *= 2
        e >>= 1


@dataclass(frozen=True, init=False)
class Term:
    """A single nonzero coefficient-monomial pair.

    A frozen record of its two fields, compared, hashed and pickled by
    value.
    """

    __slots__ = ("coefficient", "monomial")

    coefficient: Fraction
    monomial: Monomial

    def __init__(self, coefficient: Rational, monomial: Monomial):
        if coefficient == 0:
            raise ValueError("term coefficient must be nonzero")
        _set(self, coefficient=Fraction(coefficient), monomial=monomial)

    def __reduce__(self):
        return Term, (self.coefficient, self.monomial)

    def __repr__(self) -> str:
        return f"Term({self.coefficient!r}, {self.monomial!r})"


class Polynomial:
    """Immutable sparse polynomial over a fixed variable context.

    ``terms`` maps :class:`Monomial` to nonzero :class:`Rational`
    coefficients; construction drops zero coefficients and combines
    duplicate monomials, so the map is always canonical. Treat
    instances as values: no method mutates ``terms``. The value is the
    packed layout of the module docstring, and ``terms`` is built from
    it on its first read; two threads may both build it, and they build
    equal maps. ``_degree`` is its total degree and its fields are
    ``_width(_degree)`` bits wide, whether the constructor, the parser,
    an operator or the division kernel built it.

    ``_form`` holds ``(packing, form)``, the division kernel's integer
    form of the polynomial from its last conversion, or from the kernel
    build that made it, else None (see ``division``). ``_division``
    holds ``(order, divisors, result)``, its last division as a dividend:
    the order, the tuple of the divisor objects, on whose identity it is
    kept, and the result, else None; it keeps the result, its recorded
    steps and those divisors alive while the polynomial lives. The
    kernel bounds its fields by ``_degree``. Each slot is replaced whole
    by one assignment.
    Equality, hashing, printing, pickling and copying never read either;
    equality and hashing read the packed layout, not ``terms``.
    """

    __slots__ = ("context", "_numerators", "_den", "_degree", "_width", "_terms", "_form", "_division")

    def __init__(
        self,
        context: VariableContext,
        terms: Union[Mapping[Monomial, Scalar], Iterable[tuple]] = (),
    ):
        items = terms.items() if isinstance(terms, Mapping) else terms
        nvars = len(context)

        def checked() -> Iterator[tuple[Monomial, Fraction]]:
            for monomial, coefficient in items:
                if not isinstance(monomial, Monomial):
                    monomial = Monomial(monomial)
                if len(monomial) != nvars:
                    raise RingMismatchError(
                        f"ring mismatch: monomial {monomial!r} has {len(monomial)} exponents, "
                        f"context has {nvars} variables"
                    )
                yield monomial, Fraction(coefficient)

        merged = _merge({}, checked())
        den = lcm(*[c.denominator for c in merged.values()])
        degree = max(map(sum, merged), default=0)
        width = _width(degree)
        pack = _lex(nvars, width).pack
        self.context = context
        self._numerators = {pack(m): c.numerator * (den // c.denominator) for m, c in merged.items()}
        self._den, self._degree, self._width = den, degree, width
        self._terms, self._form, self._division = merged, None, None

    @property
    def terms(self) -> dict[Monomial, Fraction]:
        if self._terms is None:
            unpack, den = _lex(len(self.context), self._width).unpack, self._den
            self._terms = {unpack(m): Fraction(c, den) for m, c in self._numerators.items()}
        return self._terms

    # ---- constructors -------------------------------------------------

    @classmethod
    def zero(cls, context: VariableContext) -> "Polynomial":
        return _new(context, {}, 1, 0, START_WIDTH)

    @classmethod
    def constant(cls, context: VariableContext, value: Scalar) -> "Polynomial":
        c = Fraction(value)
        return _new(context, {0: c.numerator} if c else {}, c.denominator, 0, START_WIDTH)

    @classmethod
    def variable(cls, context: VariableContext, name: str) -> "Polynomial":
        exponents = [0] * len(context)
        exponents[context.index(name)] = 1
        return _new(context, {_lex(len(context), START_WIDTH).pack(exponents): 1}, 1, 1, START_WIDTH)

    # ---- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self._numerators

    def __bool__(self) -> bool:
        return bool(self._numerators)

    # ---- arithmetic ----------------------------------------------------

    def _coerce(self, other: object) -> "Polynomial":
        if isinstance(other, Polynomial):
            if other.context != self.context:
                raise RingMismatchError("ring mismatch")
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(self.context, other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other: object) -> "Polynomial":
        q = self._coerce(other)
        return q if q is NotImplemented else _add([(self, False), (q, False)])

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return _new(self.context, {m: -c for m, c in self._numerators.items()}, self._den, self._degree, self._width)

    def __sub__(self, other: object) -> "Polynomial":
        q = self._coerce(other)
        return q if q is NotImplemented else _add([(self, False), (q, True)])

    def __rsub__(self, other: object) -> "Polynomial":
        return (-self) + other

    def __mul__(self, other: object) -> "Polynomial":
        q = self._coerce(other)
        return q if q is NotImplemented else _multiply(self, q)

    __rmul__ = __mul__

    def __truediv__(self, scalar: Scalar) -> "Polynomial":
        c = Fraction(scalar)  # raises ZeroDivisionError on 1/0 below
        return self * (Fraction(1) / c)

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial exponent must be a nonnegative integer")
        return _power(self, exponent)

    # ---- value semantics -----------------------------------------------

    def __reduce__(self):
        return Polynomial, (self.context, self.terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.context, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        # Equal values hold equal layouts (the module docstring).
        return self.context == other.context and self._den == other._den and self._numerators == other._numerators

    def __hash__(self) -> int:
        if not any(self._numerators):  # zero or constant: equal to a scalar
            return hash(Fraction(self._numerators.get(0, 0), self._den))
        return hash((self.context, self._den, frozenset(self._numerators.items())))

    def __repr__(self) -> str:
        body = ", ".join(
            f"{tuple(m)!r}: {str(c)}" for m, c in sorted(self.terms.items())
        )
        return f"Polynomial({list(self.context.names)!r}, {{{body}}})"


# ---- the arithmetic on the packed layout ----------------------------------


def _new(context: VariableContext, numerators: dict, den: int, degree: int, width: int) -> Polynomial:
    """The Polynomial of a packed layout that meets the invariants."""
    p = object.__new__(Polynomial)
    p.context, p._numerators, p._den, p._degree, p._width = context, numerators, den, degree, width
    p._terms = p._form = p._division = None
    return p


def _lowest(context: VariableContext, numerators: dict, den: int, degree: int | None, width: int, met: int = 0) -> Polynomial:
    """numerators / den, divided by the gcd of den and every numerator:
    of met and every numerator, when met is given (``_common``); the
    numerators lex-packed in fields of width bits, repacked to the fields
    of the degree (``_width``). The degree is degree, or where that is
    None, read off the terms, whose fields must then hold each one's
    degree: it is the top field of the term times a one in each field,
    since no partial sum of its exponents passes it, so no field carries."""
    met = met or den
    g = gcd(met, *numerators.values()) if met > 1 else 1
    if g > 1:
        numerators, den = {m: c // g for m, c in numerators.items()}, den // g
    if degree is None:
        packing = _lex(len(context), width)
        ones, shift, mask = packing._ones, packing.top - width, (1 << width) - 1
        degree = max([(m * ones >> shift) & mask for m in numerators], default=0)
    return _repacked(_new(context, numerators, den, degree, width), _width(degree))


def _lex(nvars: int, width: int):
    """The layout's packing of monomials in nvars variables."""
    return order.LEX.packing(nvars, width)


def _width(degree: int) -> int:
    """The field width, guard bit included, of a value of degree degree:
    START_WIDTH, or one bit more than degree takes."""
    return max(START_WIDTH, degree.bit_length() + 1)


def _repacked(p: Polynomial, width: int) -> Polynomial:
    """p in lex fields of width bits, which must hold its terms, repacked
    term by term where they differ from its own: no table keeps the
    repacked monomials, which a huge degree makes as long as all their
    fields."""
    if width == p._width:
        return p
    n = len(p.context)
    repack, fields = _lex(n, p._width).repack, _lex(n, width)
    return _new(p.context, {repack(m, fields): c for m, c in p._numerators.items()}, p._den, p._degree, width)


def _common(dens: list[int]) -> tuple[int, int]:
    """The lcm of dens, and the lcm of the gcds its running value met.

    Over the lcm, a sum of least summands of these denominators has
    numerators whose gcd with the lcm divides the second (Henrici): where
    one denominator alone holds a prime's highest power, a numerator of its
    summand leaves the sum prime to it, and a highest power two hold is a
    gcd met. So pairwise coprime denominators take no numerator gcd."""
    den = met = 1
    for d in dens:
        if d > 1:
            g = gcd(den, d)
            den = den // g * d
            if g > 1:
                met = lcm(met, g)
    return den, met


def _add(summands: list[tuple[Polynomial, bool]]) -> Polynomial:
    """The sum of (polynomial, negated) pairs, over the least common
    denominator, then divided by its gcd with every numerator (``_common``).
    Its degree is the summands' largest unless a term cancelled, which
    only a merge into fewer terms than the summands hold can do; then it
    is read off the sum."""
    den, met = _common([p._den for p, _ in summands])
    degree = max([p._degree for p, _ in summands])
    width = _width(degree)
    terms: dict = {}
    for p, negated in summands:
        scale = -(den // p._den) if negated else den // p._den
        _merge(terms, [(m, c * scale) for m, c in _repacked(p, width)._numerators.items()])
    if len(terms) < sum([len(p._numerators) for p, _ in summands]):
        degree = None
    return _lowest(summands[0][0].context, terms, den, degree, width, met)


def _multiply(a: Polynomial, b: Polynomial) -> Polynomial:
    """a * b, cross-cancelled as Fraction multiplies: with a and b least
    the product is least (Gauss's lemma). A den of 1 takes no gcd."""
    g1 = gcd(b._den, *a._numerators.values()) if b._den > 1 else 1
    g2 = gcd(a._den, *b._numerators.values()) if a._den > 1 else 1
    if g1 > 1 or g2 > 1:
        a = _new(a.context, {m: c // g1 for m, c in a._numerators.items()}, a._den // g2, a._degree, a._width)
        b = _new(b.context, {m: c // g2 for m, c in b._numerators.items()}, b._den // g1, b._degree, b._width)
    return _times(a, b)


def _power(base: Polynomial, e: int) -> Polynomial:
    """base^e by square and multiply (``_square_and_multiply``); a power
    of a least value is least, so no gcd is taken. The base is widened
    once, to the fields of the power's degree, which every product keeps."""
    width = _width(base._degree * e)
    result = _new(base.context, {0: 1}, 1, 0, width)
    # The fields of base^0 may be narrower than base's, which it never reads.
    base = _repacked(base, max(width, base._width))
    for i, j in _square_and_multiply(e):
        if i == j:
            base = _times(base, base)
        else:
            result = _times(result, base)
    return result


def _times(a: Polynomial, b: Polynomial) -> Polynomial:
    """a * b, numerators and denominators multiplied with no gcd, in the
    fields of its degree, or in _power's operands' wider ones. The degrees
    of nonzero factors add; a product with a zero factor is zero."""
    degree = a._degree + b._degree
    width = max(a._width, b._width, _width(degree))
    a, b = _repacked(a, width), _repacked(b, width)
    terms: dict = {}
    pairs = b._numerators.items()
    for m1, c1 in a._numerators.items():
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
    return _new(a.context, terms, a._den * b._den, degree, width) if terms else Polynomial.zero(a.context)


# order builds on this module's classes, so it is bound last.
from . import order  # noqa: E402
