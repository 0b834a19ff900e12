"""Polynomial arithmetic on a dict of Monomial to Fraction: the reference.

Every term is a ``Fraction`` keyed by its ``Monomial``, and each
operation merges terms one at a time (``_merge``). Slow, but it states
the ring's arithmetic with nothing packed, so ``Polynomial`` must give
exactly its terms, in its term order, and its equality and repr.
"""

from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Union

from groebnerkit.ring import Monomial, RingMismatchError, VariableContext

Scalar = Union[int, Fraction]


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
    """The products p^i * p^j, as (i, j), that p^e takes, in order."""
    low, high = 0, 1  # the result is p^low, and the base p^high
    while e:
        if e & 1:
            yield low, high
            low += high
        if e > 1:
            yield high, high
            high *= 2
        e >>= 1


class ReferencePolynomial:
    """A sparse polynomial as a dict of Monomial to nonzero Fraction."""

    __slots__ = ("context", "terms")

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
                    raise RingMismatchError("ring mismatch")
                yield monomial, Fraction(coefficient)

        self.context = context
        self.terms = _merge({}, checked())

    @classmethod
    def constant(cls, context: VariableContext, value: Scalar) -> "ReferencePolynomial":
        return cls(context, {Monomial((0,) * len(context)): Fraction(value)})

    @classmethod
    def variable(cls, context: VariableContext, name: str) -> "ReferencePolynomial":
        exponents = [0] * len(context)
        exponents[context.index(name)] = 1
        return cls(context, {Monomial(exponents): Fraction(1)})

    def _coerce(self, other: object) -> "ReferencePolynomial":
        if isinstance(other, ReferencePolynomial):
            if other.context != self.context:
                raise RingMismatchError("ring mismatch")
            return other
        if isinstance(other, (int, Fraction)):
            return ReferencePolynomial.constant(self.context, other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other: object) -> "ReferencePolynomial":
        q = self._coerce(other)
        if q is NotImplemented:
            return NotImplemented
        return self._wrap(_merge(dict(self.terms), q.terms.items()))

    __radd__ = __add__

    def __neg__(self) -> "ReferencePolynomial":
        return self._wrap({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: object) -> "ReferencePolynomial":
        q = self._coerce(other)
        if q is NotImplemented:
            return NotImplemented
        return self + (-q)

    def __rsub__(self, other: object) -> "ReferencePolynomial":
        return (-self) + other

    def __mul__(self, other: object) -> "ReferencePolynomial":
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                return ReferencePolynomial(self.context)
            return self._wrap({m: v * c for m, v in self.terms.items()})
        q = self._coerce(other)
        if q is NotImplemented:
            return NotImplemented
        out, pairs = {}, q.terms.items()
        for m1, c1 in self.terms.items():
            _merge(out, [(m1 * m2, c1 * c2) for m2, c2 in pairs])
        return self._wrap(out)

    __rmul__ = __mul__

    def __truediv__(self, scalar: Scalar) -> "ReferencePolynomial":
        c = Fraction(scalar)
        return self * (Fraction(1) / c)

    def __pow__(self, exponent: int) -> "ReferencePolynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial exponent must be a nonnegative integer")
        result, base = ReferencePolynomial.constant(self.context, 1), self
        for i, j in _square_and_multiply(exponent):
            if i == j:
                base = base * base
            else:
                result = result * base
        return result

    def _wrap(self, terms: dict) -> "ReferencePolynomial":
        p = object.__new__(ReferencePolynomial)
        p.context = self.context
        p.terms = terms
        return p

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = ReferencePolynomial.constant(self.context, other)
        if not isinstance(other, ReferencePolynomial):
            return NotImplemented
        return self.context == other.context and self.terms == other.terms

    def __repr__(self) -> str:
        body = ", ".join(
            f"{tuple(m)!r}: {str(c)}" for m, c in sorted(self.terms.items())
        )
        return f"Polynomial({list(self.context.names)!r}, {{{body}}})"
