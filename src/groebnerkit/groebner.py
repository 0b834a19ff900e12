"""Groebner bases: S-polynomials, Buchberger completion, reduction.

Completion keeps the pending pairs of basis members and always reduces
the pair of smallest sugar, ties going to the smaller lcm under the
order and then to the older pair (Giovini, Mora, Niesi, Robbiano and
Traverso, "One sugar cube, please", 1991). An input's sugar is its total
degree; a pair's is the larger of sugar(g) + deg lcm - deg LM(g) over
its two members, and a new member takes the sugar of the pair it came
from. Sugar tracks the degree the computation would have without
cancellation, so under lex as under a graded order low-degree work is
done first.

Each pair's S-polynomial is reduced to normal form against the current
basis; a nonzero normal form is made monic and enters the basis. The
division kernel does both in its integer forms (``division.reduce_s_pair``):
completion hands it the pair's indices, and it hands back the new monic
member with its leading monomial, so no S-polynomial is built as a
``Polynomial`` and no leading term is searched for. Every
member, the inputs first, enters through the Gebauer-Moeller update
(Gebauer and Moeller, "On an installation of Buchberger's algorithm",
1988), which drops the pairs that the pairs it keeps make redundant:

- of the new pairs, one whose lcm is a multiple of another new pair's
  lcm (equal lcms keep one of them);
- a new pair whose leading monomials share no variable (Buchberger's
  product criterion);
- an old pair (i, j) whose lcm the new leading monomial t divides, when
  neither lcm(LM(i), t) nor lcm(LM(j), t) equals it (the chain
  criterion).

An older member whose leading monomial the new t divides stays in the
basis for reduction but is paired with no later member.

The loop ends with an unreduced Groebner basis containing the input
generators; which other members it holds depends on this algorithm.
``reduce_basis`` then drops members whose leading terms are divisible
by another member's, interreduces the survivors, and scales them monic,
yielding the unique reduced basis for the ideal and order. The kernel
does all three on the members' integer forms (``division.interreduce``),
testing divisibility on their packed leading monomials.
Neither sorts its result: a ``GroebnerBasis`` holds members of one ring,
sorted by the leading monomials the kernel reads off their forms.
"""

from __future__ import annotations

from dataclasses import dataclass

from .division import divide, interreduce, leading_monomials, reduce_s_pair
from .order import MonomialOrder, leading_term
from .ring import Monomial, Polynomial, RingMismatchError, _merge

# Most members completion may hold before it gives up with a ValueError.
MAX_BASIS_SIZE = 10_000


@dataclass(frozen=True)
class GroebnerBasis:
    """A generating set tagged with its order and reduced/unreduced status.

    There must be at least one generator, each nonzero and all of one
    ring; construction sorts them stably by leading monomial, smallest
    first, so equal bases compare equal structurally. The leads are read
    off the division kernel's forms (``division.leading_monomials``).
    """

    generators: tuple[Polynomial, ...]
    order: MonomialOrder
    reduced: bool

    def __post_init__(self):
        if not self.generators:
            raise ValueError("empty generating set")
        keys = map(self.order.key_function(), leading_monomials(list(self.generators), self.order))
        ordered = [g for _, g in sorted(zip(keys, self.generators), key=lambda pair: pair[0])]
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
    if p.context != q.context:
        raise RingMismatchError("ring mismatch")
    lt_p = leading_term(p, order)
    lt_q = leading_term(q, order)
    lcm = lt_p.monomial.lcm(lt_q.monomial)
    u, a = lcm / lt_p.monomial, 1 / lt_p.coefficient
    v, b = lcm / lt_q.monomial, -1 / lt_q.coefficient
    left = {m * u: c * a for m, c in p.terms.items()}
    return p._wrap(_merge(left, [(m * v, c * b) for m, c in q.terms.items()]))


def normal_form(
    f: Polynomial, basis: list[Polynomial], order: MonomialOrder
) -> Polynomial:
    """Remainder of f under division by the basis list.

    No term of the result is divisible by any basis leading term; the
    result is zero exactly when f reduces to zero against the list.
    """
    return divide(f, list(basis), order).remainder


def buchberger(
    generators: list[Polynomial], order: MonomialOrder, stats: dict | None = None
) -> GroebnerBasis:
    """Complete a generating set to a Groebner basis.

    Zero generators are stripped first; an empty, all-zero or mixed-ring
    input is an error. The inputs, then each nonzero monic normal form,
    enter the basis through the Gebauer-Moeller update, and pairs are
    reduced in sugar order (see the module docstring). The result holds
    the inputs as given; its other members depend on this algorithm, so
    the raw basis is not unique and only ``reduce_basis`` of it is. A
    basis of more than ``MAX_BASIS_SIZE`` members raises a ValueError, so
    a runaway computation fails cleanly instead of looping without bound.

    Given a dict as stats, completion adds its work to it, once per pair
    and per member: ``pairs_formed`` (each entering member with each
    member it is paired with), the pairs of those pruned by the lcm
    criterion (``pruned_lcm``) and by the product criterion
    (``pruned_product``), older pairs pruned by the chain criterion
    (``pruned_chain``), ``s_pairs_reduced``, the ``new_members`` they gave,
    and ``basis_high_water``, the most members held, kept as a maximum.
    """
    inputs = [g for g in generators if not g.is_zero()]
    if not inputs:
        raise ValueError("empty generating set")

    key = order.key_function()
    G: list[Polynomial] = []
    lms: list[Monomial] = []
    sugars: list[int] = []
    active: list[int] = []  # members that later members are paired with
    # (i, j) -> (sugar, key(lcm), lcm); min() returns the first of equal
    # values in insertion order, so ties go to the older pair.
    pairs: dict[tuple[int, int], tuple] = {}

    def enter(h: Polynomial, t: Monomial, sugar: int) -> None:
        with_t = [lm.lcm(t) for lm in lms]
        new = len(G)
        # A coprime pair stays as a witness until the product criterion.
        formed = [(k, with_t[k], lms[k].is_coprime_with(t)) for k in active]
        kept = []
        for n, (k, m, coprime) in enumerate(formed):
            if coprime or not any(w.divides(m) for _, w, _ in formed[n + 1 :] + kept):
                kept.append((k, m, coprime))
        chained = [(i, j) for (i, j), (_, _, m) in pairs.items() if t.divides(m) and with_t[i] != m != with_t[j]]
        for pair in chained:
            del pairs[pair]
        for k, m, coprime in kept:
            if not coprime:
                d = m.degree
                pair_sugar = max(sugars[k] + d - lms[k].degree, sugar + d - t.degree)
                pairs[k, new] = (pair_sugar, key(m), m)
        active[:] = [k for k in active if not t.divides(lms[k])] + [new]
        G.append(h)
        lms.append(t)
        sugars.append(sugar)
        if stats is not None:
            coprime = sum(c for _, _, c in kept)
            _add(stats, pairs_formed=len(formed), pruned_lcm=len(formed) - len(kept),
                 pruned_product=coprime, pruned_chain=len(chained))
            stats["basis_high_water"] = max(stats.get("basis_high_water", 0), len(G))

    for g, lm in zip(inputs, leading_monomials(inputs, order)):
        enter(g, lm, max(m.degree for m in g.terms))

    while pairs:
        i, j = min(pairs, key=pairs.__getitem__)
        sugar = pairs.pop((i, j))[0]
        reduced = reduce_s_pair(G, i, j, order)
        if stats is not None:
            _add(stats, s_pairs_reduced=1, new_members=reduced is not None)
        if reduced is None:
            continue
        enter(*reduced, sugar)
        if len(G) > MAX_BASIS_SIZE:
            raise ValueError(f"basis size exceeded the cap of {MAX_BASIS_SIZE} elements")

    return GroebnerBasis(tuple(G), order, reduced=False)


def _add(stats: dict, **counts: int) -> None:
    for name, n in counts.items():
        stats[name] = stats.get(name, 0) + n


def reduce_basis(basis: GroebnerBasis) -> GroebnerBasis:
    """Reduce a Groebner basis to the unique reduced basis.

    Drop any member whose leading term another surviving member's
    leading term divides, replace each survivor by its remainder modulo
    the others, and scale everything monic. Idempotent. The kernel does
    all three on the members' integer forms (``division.interreduce``),
    so no lead or tail is built as a ``Polynomial``.
    """
    return GroebnerBasis(interreduce(list(basis.generators), basis.order), basis.order, reduced=True)


def groebner_basis(generators: list[Polynomial], order: MonomialOrder) -> GroebnerBasis:
    """Convenience pipeline: complete, then reduce."""
    return reduce_basis(buchberger(generators, order))
