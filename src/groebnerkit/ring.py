"""Exact rational scalars and sparse multivariate polynomials.

Coefficients are arbitrary-precision rationals (``fractions.Fraction``),
canonical by construction: positive denominator, fully reduced, zero
stored as 0/1. Polynomials are immutable sparse maps from exponent
vectors to nonzero coefficients; the zero polynomial is the empty map.
No term order is fixed here: values are order-agnostic, and any monomial
order can be applied on demand without converting the value.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Union

Rational = Fraction

Scalar = Union[int, Fraction]


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


# A variable name: a letter or underscore, then letters, digits or
# underscores. The parser reads names by this pattern, so printed
# polynomials re-parse.
NAME = re.compile(r"[^\W\d]\w*")


class VariableContext:
    """Ordered list of distinct variable names, each matching NAME.

    List position is the variable index; earlier names are the more
    significant ones for lex-style comparisons.
    """

    __slots__ = ("names",)

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
        self.names = names

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

    def unit_monomial(self) -> "Monomial":
        return Monomial((0,) * len(self.names))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, VariableContext) and self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

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

    def is_coprime_with(self, other: "Monomial") -> bool:
        self._check_arity(other)
        return all(a == 0 or b == 0 for a, b in zip(self, other))

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


class Term:
    """A single nonzero coefficient-monomial pair."""

    __slots__ = ("coefficient", "monomial")

    def __init__(self, coefficient: Rational, monomial: Monomial):
        if coefficient == 0:
            raise ValueError("term coefficient must be nonzero")
        self.coefficient = Fraction(coefficient)
        self.monomial = monomial

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Term)
            and self.coefficient == other.coefficient
            and self.monomial == other.monomial
        )

    def __hash__(self) -> int:
        return hash((self.coefficient, self.monomial))

    def __repr__(self) -> str:
        return f"Term({self.coefficient!r}, {self.monomial!r})"


class Polynomial:
    """Immutable sparse polynomial over a fixed variable context.

    ``terms`` maps :class:`Monomial` to nonzero :class:`Rational`
    coefficients; construction drops zero coefficients and combines
    duplicate monomials, so the stored map is always canonical. Treat
    instances as values: no method mutates ``terms``.

    ``_form`` holds ``(packing, form)``, the division kernel's integer
    form of the polynomial from its last conversion, or from the kernel
    build that made it, else None (see ``division``). Equality, hashing,
    printing, pickling and copying never read it.
    """

    __slots__ = ("context", "terms", "_form")

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

        self.context = context
        self.terms = _merge({}, checked())
        self._form = None

    # ---- constructors -------------------------------------------------

    @classmethod
    def zero(cls, context: VariableContext) -> "Polynomial":
        return cls(context)

    @classmethod
    def constant(cls, context: VariableContext, value: Scalar) -> "Polynomial":
        return cls(context, {context.unit_monomial(): Fraction(value)})

    @classmethod
    def variable(cls, context: VariableContext, name: str) -> "Polynomial":
        exponents = [0] * len(context)
        exponents[context.index(name)] = 1
        return cls(context, {Monomial(exponents): Fraction(1)})

    # ---- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

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
        if q is NotImplemented:
            return NotImplemented
        return self._wrap(_merge(dict(self.terms), q.terms.items()))

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return self._wrap({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: object) -> "Polynomial":
        q = self._coerce(other)
        if q is NotImplemented:
            return NotImplemented
        return self + (-q)

    def __rsub__(self, other: object) -> "Polynomial":
        return (-self) + other

    def __mul__(self, other: object) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                return Polynomial.zero(self.context)
            return self._wrap({m: v * c for m, v in self.terms.items()})
        q = self._coerce(other)
        if q is NotImplemented:
            return NotImplemented
        out, pairs = {}, q.terms.items()
        for m1, c1 in self.terms.items():
            _merge(out, [(m1 * m2, c1 * c2) for m2, c2 in pairs])
        return self._wrap(out)

    __rmul__ = __mul__

    def __truediv__(self, scalar: Scalar) -> "Polynomial":
        c = Fraction(scalar)  # raises ZeroDivisionError on 1/0 below
        return self * (Fraction(1) / c)

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial exponent must be a nonnegative integer")
        result, base = Polynomial.constant(self.context, 1), self
        for i, j in _square_and_multiply(exponent):
            if i == j:
                base = base * base
            else:
                result = result * base
        return result

    def _wrap(self, terms: dict) -> "Polynomial":
        # Internal fast path: terms are already canonical (no zeros, no dups).
        p = object.__new__(Polynomial)
        p.context = self.context
        p.terms = terms
        p._form = None
        return p

    # ---- value semantics -----------------------------------------------

    def __reduce__(self):
        return Polynomial, (self.context, self.terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.context, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.context == other.context and self.terms == other.terms

    def __hash__(self) -> int:
        if not any(map(any, self.terms)):  # zero or constant: equal to a scalar
            return hash(next(iter(self.terms.values()), 0))
        return hash((self.context, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        body = ", ".join(
            f"{tuple(m)!r}: {str(c)}" for m, c in sorted(self.terms.items())
        )
        return f"Polynomial({list(self.context.names)!r}, {{{body}}})"
