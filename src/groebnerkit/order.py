"""Monomial orders and leading-term projections.

Three total, multiplicative well-orders on monomials of a fixed arity:

- ``lex``: compare exponent vectors left to right.
- ``grlex``: compare total degree, break ties by lex.
- ``grevlex``: compare total degree, break ties by the last nonzero
  entry of the exponent difference (negative entry means larger).

Each order is realized as a key function; ``compare`` and every sort in
the package go through the same key, so display order and algorithm
order can never disagree.
"""

from __future__ import annotations

import enum
from typing import Callable

from .ring import Monomial, Polynomial, Rational, Term


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


def leading_monomial(p: Polynomial, order: MonomialOrder) -> Monomial:
    return leading_term(p, order).monomial


def leading_coefficient(p: Polynomial, order: MonomialOrder) -> Rational:
    return leading_term(p, order).coefficient


def sorted_terms(p: Polynomial, order: MonomialOrder) -> list[Term]:
    """Terms of p sorted under the order, largest first."""
    monomials = sorted(p.terms, key=order.key_function(), reverse=True)
    return [Term(p.terms[m], m) for m in monomials]
