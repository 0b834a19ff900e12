"""Groebner bases: S-polynomials, Buchberger completion, reduction.

The completion loop keeps a FIFO queue of unordered index pairs. Each
pair's S-polynomial is reduced to normal form against the current
basis; a nonzero normal form is made monic, appended, and paired with
every existing member. The loop ends with an unreduced Groebner basis
containing the input generators. ``reduce_basis`` then drops members
whose leading terms are divisible by another member's, interreduces the
survivors, and scales them monic, yielding the unique reduced basis for
the ideal and order. Neither sorts its result: a ``GroebnerBasis``
sorts its generators by leading monomial when it is built.

Pairs whose leading monomials share no variable are skipped: their
S-polynomials always reduce to zero (Buchberger's first criterion).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .division import divide
from .order import MonomialOrder, leading_monomial, leading_term
from .ring import Polynomial, RingMismatchError

DEFAULT_BASIS_SIZE_CAP = 10_000


@dataclass(frozen=True)
class GroebnerBasis:
    """A generating set tagged with its order and reduced/unreduced status.

    Generators must be nonzero; construction sorts them by leading
    monomial, smallest first, so equal bases compare equal structurally.
    """

    generators: tuple[Polynomial, ...]
    order: MonomialOrder
    reduced: bool

    def __post_init__(self):
        # leading_monomial raises ValueError on a zero generator.
        key = self.order.key_function()
        ordered = sorted(self.generators, key=lambda g: key(leading_monomial(g, self.order)))
        object.__setattr__(self, "generators", tuple(ordered))

    @property
    def context(self):
        return self.generators[0].context

    def __iter__(self):
        return iter(self.generators)

    def __len__(self) -> int:
        return len(self.generators)


def s_polynomial(p: Polynomial, q: Polynomial, order: MonomialOrder) -> Polynomial:
    """(L/LT(p))*p - (L/LT(q))*q with L = lcm(LM(p), LM(q)).

    The leading terms cancel by construction, exposing the next
    monomials underneath.
    """
    lt_p = leading_term(p, order)
    lt_q = leading_term(q, order)
    lcm = lt_p.monomial.lcm(lt_q.monomial)
    left = p.mul_term(Fraction(1) / lt_p.coefficient, lcm / lt_p.monomial)
    right = q.mul_term(Fraction(-1) / lt_q.coefficient, lcm / lt_q.monomial)
    return left + right


def normal_form(
    f: Polynomial, basis: list[Polynomial], order: MonomialOrder
) -> Polynomial:
    """Remainder of f under division by the basis list.

    No term of the result is divisible by any basis leading term; the
    result is zero exactly when f reduces to zero against the list.
    """
    return divide(f, list(basis), order).remainder


def buchberger(
    generators: list[Polynomial],
    order: MonomialOrder,
    *,
    basis_size_cap: int = DEFAULT_BASIS_SIZE_CAP,
) -> GroebnerBasis:
    """Complete a generating set to a Groebner basis.

    Zero generators are stripped first; an empty or all-zero input is an
    error. The cap turns a runaway computation into a clean failure
    instead of an unbounded loop.
    """
    G = [g for g in generators if not g.is_zero()]
    if not G:
        raise ValueError("empty generating set")
    ctx = G[0].context
    for g in G:
        if g.context != ctx:
            raise RingMismatchError("ring mismatch")

    pairs = deque((i, j) for i in range(len(G)) for j in range(i + 1, len(G)))
    lms = [leading_monomial(g, order) for g in G]

    while pairs:
        i, j = pairs.popleft()
        if lms[i].is_coprime_with(lms[j]):
            continue
        s = s_polynomial(G[i], G[j], order)
        if s.is_zero():
            continue
        h = normal_form(s, G, order)
        if h.is_zero():
            continue
        lm = leading_monomial(h, order)
        G.append(h / h.terms[lm])
        lms.append(lm)
        if len(G) > basis_size_cap:
            raise ValueError(
                f"basis size exceeded the cap of {basis_size_cap} elements"
            )
        new = len(G) - 1
        pairs.extend((k, new) for k in range(new))

    return GroebnerBasis(tuple(G), order, reduced=False)


def reduce_basis(basis: GroebnerBasis) -> GroebnerBasis:
    """Reduce a Groebner basis to the unique reduced basis.

    Drop any member whose leading term another surviving member's
    leading term divides, replace each survivor by its remainder modulo
    the others, and scale everything monic. Idempotent.
    """
    order = basis.order
    # A leading monomial that divides another is never larger, so in
    # the basis's ascending order every dominating member comes first;
    # of two equal leading monomials the first is kept.
    survivors: list[Polynomial] = []
    kept_lms = []
    for g in basis.generators:
        lm = leading_monomial(g, order)
        if not any(m.divides(lm) for m in kept_lms):
            survivors.append(g)
            kept_lms.append(lm)

    # One pass suffices: leading terms are now pairwise indivisible, so
    # interreduction only rewrites trailing terms and never disturbs the
    # leading ones the divisibility checks depend on.
    for i in range(len(survivors)):
        others = survivors[:i] + survivors[i + 1 :]
        if others:
            survivors[i] = divide(survivors[i], others, order).remainder

    monic = [g / g.terms[lm] for g, lm in zip(survivors, kept_lms)]
    return GroebnerBasis(tuple(monic), order, reduced=True)


def groebner_basis(generators: list[Polynomial], order: MonomialOrder, **kwargs) -> GroebnerBasis:
    """Convenience pipeline: complete, then reduce."""
    return reduce_basis(buchberger(generators, order, **kwargs))
