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
basis; a nonzero normal form is made monic and enters the basis.
Completion runs in the division kernel's state (``division._Completion``):
the members are integer forms with packed leading monomials, the kernel
reduces each pair's S-polynomial from them and keeps the new member as a
form, and no ``Polynomial`` is built: the raw basis builds its new
members when they are first read.
Every member, the inputs first, enters through the Gebauer-Moeller
update (Gebauer and Moeller, "On an installation of Buchberger's
algorithm", 1988), on the packed leads: each lcm, divisibility and
coprimality test is a few ``int`` operations (``Packing.lcm``,
``divides`` and ``coprime``), and a pair is keyed by its packed lcm.
``buchberger``, not the kernel's state, keeps the pending pairs, and keys
them again from the repacked leads when a reduction doubles the fields.
The update drops the pairs that the pairs it keeps make redundant:

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
does all three on the forms the raw basis holds
(``division._interreduce_forms``), testing divisibility on their packed
leading monomials, so ``groebner_basis`` builds a ``Polynomial`` only for
each member of the reduced basis. Neither sorts its result: every
``GroebnerBasis`` holds the packing and forms of its members, of one
ring, and sorts them on the forms' order keys. One the kernel builds
converts nothing; one built from polynomials holds the forms it read
their leads off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .division import _Completion, _gate, _interreduce_forms, _members, divide
from .order import MonomialOrder, leading_term
from .ring import Polynomial, RingMismatchError, _merge

# Most members completion may hold before it gives up with a ValueError.
MAX_BASIS_SIZE = 10_000


@dataclass(frozen=True, init=False)
class GroebnerBasis:
    """A generating set tagged with its order and reduced/unreduced status.

    There must be at least one generator, each nonzero and all of one
    ring; construction sorts them stably by leading monomial, smallest
    first, so equal bases compare equal structurally. The sort keys are
    the order keys of the division kernel's packed leads.

    A frozen dataclass of its three fields, compared, hashed, printed and
    pickled by value, with its own constructor and slots. Every basis
    also holds the kernel's packing and its members' forms, sorted on the
    forms' order keys, in ``_kernel``: the constructor keeps the forms it
    sorts on, and ``buchberger`` and ``reduce_basis`` the forms they
    made. ``reduce_basis`` interreduces those forms, and ``staircase``
    reads the leads off them. ``buchberger``'s raw basis builds its new
    members' Polynomials when ``generators`` is first read, and each
    member then holds its form. Two threads may both build them; they
    build equal tuples.
    """

    __slots__ = ("generators", "order", "reduced", "_kernel")

    generators: tuple[Polynomial, ...]
    order: MonomialOrder
    reduced: bool

    def __init__(self, generators: Iterable[Polynomial], order: MonomialOrder, reduced: bool):
        generators = tuple(generators)
        if not generators:
            raise ValueError("empty generating set")
        packing, forms = _gate(list(generators), order)
        self._hold(packing, forms, generators, generators[0]._wrap, order, reduced)

    @classmethod
    def _of_forms(cls, packing, forms, given, wrap, order: MonomialOrder, reduced: bool) -> GroebnerBasis:
        basis = object.__new__(cls)
        basis._hold(packing, forms, given, wrap, order, reduced)
        return basis

    def _hold(self, packing, forms, given, wrap, order: MonomialOrder, reduced: bool) -> None:
        """Hold the kernel's forms in one packing, given[i] the Polynomial
        of forms[i] or None, sorted stably on the forms' order keys. The
        missing Polynomials are built by wrap when first read."""
        ordered = sorted(range(len(forms)), key=lambda k: forms[k].key)
        forms, given = tuple(forms[k] for k in ordered), tuple(given[k] for k in ordered)
        _set(self, order=order, reduced=reduced, _kernel=(packing, forms, given, wrap))
        if all(g is not None for g in given):
            _set(self, generators=given)

    def __getattr__(self, name: str):
        # Reached only for a slot not set: a raw basis's generators before
        # their first read.
        if name != "generators":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        generators = _members(*self._kernel)
        _set(self, generators=generators)
        return generators

    def __reduce__(self):
        return GroebnerBasis, (self.generators, self.order, self.reduced)

    @property
    def context(self):
        return self.generators[0].context

    def __iter__(self):
        return iter(self.generators)

    def __len__(self) -> int:
        return len(self.generators)


def _set(obj: object, **values) -> None:
    for name, value in values.items():
        object.__setattr__(obj, name, value)


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
    At the end it adds ``widenings``, the number of times the packed
    fields doubled because a product or a new member's degree outgrew
    them; it depends on the inputs alone.

    The pending pairs are this function's own, keyed by (sugar, order key
    of the packed lcm, packed lcm) in the completion state's packing;
    after a reduction that doubles the fields, each pending pair's lcm is
    taken again from the repacked leads.

    The raw basis holds the completion's packing and forms. The inputs
    are its members as given; the others are built as monic Polynomials
    when ``generators`` is first read, and ``reduce_basis`` never reads
    them. Two threads may both build them; they build equal tuples.
    """
    inputs = [g for g in generators if not g.is_zero()]
    if not inputs:
        raise ValueError("empty generating set")

    state = _Completion(inputs, order)
    sugars: list[int] = []  # each member's sugar
    # (i, j) -> (sugar, key(lcm), lcm) in the state's packing; min() returns
    # the first of equal values in insertion order, so ties go to the older
    # pair.
    pairs: dict[tuple[int, int], tuple[int, int, int]] = {}
    active: list[int] = []  # members that later members are paired with

    def enter(new: int, sugar: int) -> None:
        packing, leads = state.packing, state.leads
        lcm, divides, degree = packing.lcm, packing.divides, packing.degree
        t = leads[new]
        with_t = [lcm(lead, t) for lead in leads[:new]]
        # A coprime pair stays as a witness until the product criterion.
        formed = [(k, with_t[k], packing.coprime(leads[k], t)) for k in active]
        kept = []
        for n, (k, m, coprime) in enumerate(formed):
            if coprime or not any(divides(w, m) for _, w, _ in formed[n + 1 :] + kept):
                kept.append((k, m, coprime))
        chained = [(i, j) for (i, j), (_, _, m) in pairs.items() if divides(t, m) and with_t[i] != m != with_t[j]]
        for pair in chained:
            del pairs[pair]
        for k, m, coprime in kept:
            if not coprime:
                d = degree(m)
                pair_sugar = max(sugars[k] + d - degree(leads[k]), sugar + d - degree(t))
                pairs[k, new] = (pair_sugar, packing.key(m), m)
        active[:] = [k for k in active if not divides(t, leads[k])] + [new]
        sugars.append(sugar)
        if stats is not None:
            coprime = sum(c for _, _, c in kept)
            _add(stats, pairs_formed=len(formed), pruned_lcm=len(formed) - len(kept),
                 pruned_product=coprime, pruned_chain=len(chained))
            stats["basis_high_water"] = max(stats.get("basis_high_water", 0), new + 1)

    for new in range(len(inputs)):
        enter(new, state.forms[new].degree)

    while pairs:
        i, j = min(pairs, key=pairs.__getitem__)
        sugar = pairs.pop((i, j))[0]
        widenings = state.widenings
        grew = state.reduce(i, j)
        if state.widenings != widenings:
            # The fields doubled, and the stored lcms are of the old packing.
            lcm, key, leads = state.packing.lcm, state.packing.key, state.leads
            for (a, b), (pair_sugar, _, _) in pairs.items():
                m = lcm(leads[a], leads[b])
                pairs[a, b] = (pair_sugar, key(m), m)
        if stats is not None:
            _add(stats, s_pairs_reduced=1, new_members=grew)
        if not grew:
            continue
        enter(len(state.leads) - 1, sugar)
        if len(state.leads) > MAX_BASIS_SIZE:
            raise ValueError(f"basis size exceeded the cap of {MAX_BASIS_SIZE} elements")

    if stats is not None:
        _add(stats, widenings=state.widenings)
    given = inputs + [None] * (len(state.forms) - len(inputs))
    return GroebnerBasis._of_forms(state.packing, tuple(state.forms), given, inputs[0]._wrap, order, reduced=False)


def _add(stats: dict, **counts: int) -> None:
    for name, n in counts.items():
        stats[name] = stats.get(name, 0) + n


def reduce_basis(basis: GroebnerBasis) -> GroebnerBasis:
    """Reduce a Groebner basis to the unique reduced basis.

    Drop any member whose leading term another surviving member's
    leading term divides, replace each survivor by its remainder modulo
    the others, and scale everything monic. Idempotent. The kernel does
    all three on integer forms (``division._interreduce_forms``), so no
    lead or tail is built as a ``Polynomial``. Every basis hands over the
    forms it holds, so a raw basis's generators are neither read nor
    built. The survivors' Polynomials are built before it returns, and
    each holds its form.
    Another thread may read a raw basis's generators meanwhile; each build
    of them gives an equal tuple.
    """
    order = basis.order
    packing, forms, _, wrap = basis._kernel
    packing, survivors = _interreduce_forms(forms, packing)
    members = _members(packing, survivors, [None] * len(survivors), wrap)
    return GroebnerBasis._of_forms(packing, survivors, members, wrap, order, reduced=True)


def groebner_basis(generators: list[Polynomial], order: MonomialOrder) -> GroebnerBasis:
    """Convenience pipeline: complete, then reduce."""
    return reduce_basis(buchberger(generators, order))
