"""Groebner bases: S-polynomials, signature completion, reduction.

Completion is signature-based (Gao, Volny and Wang, "A new framework for
computing Groebner bases", Math. Comp. 2016; Roune and Stillman,
"Practical Groebner basis computation", ISSAC 2012). Each member g is a
combination of the inputs whose largest term is its signature t * e_i.
Signatures are ordered as in the Schreyer order: by the order key of
t * LM(e_i's member), then by i. Keys add under multiplication, so a
signature is held as the packed monomial t * LM(e_i's member) with its
index, and its key is one ``int`` sum.

The inputs come first, in increasing order of leads. Each is reduced by
the ones before it as they were reduced, and each nonzero result is the
member of signature e_i. An input this changes stays in the raw basis
as given, and its result joins it. A member, when it enters, forms with
each earlier member

- a principal syzygy g * U_h - h * U_g, U the combinations, of
  signature the larger of LM(g) * sig(h) and LM(h) * sig(g);
- a J-pair: of the multiples of g and h whose leads are
  lcm(LM(g), LM(h)), the one of larger signature. Two equal signatures
  form neither.

J-pairs come off one heap in increasing signature, and of one
signature the pair of the smallest lcm first. A J-pair is dropped when

- the signature of a known syzygy divides its own. The known syzygies
  are the principal ones and the pairs that reduced to zero, kept
  minimal per index. A pair of coprime leads has its principal
  syzygy's signature: Buchberger's product criterion;
- a member of its index covers it: that member's multiple of the pair's
  signature has a smaller lead. After a pair is reduced, this drops the
  other pairs of its signature.

A kept pair's S-polynomial is reduced only by multiples of lower
signature, its lead and its tail alike. A zero result is a syzygy of
the pair's signature. A nonzero result made monic enters as a new member
of that signature. It is never singular: its lead is below the pair's
lcm, since the S-polynomial holds the two tails only, so a member whose
multiple of its signature had that lead would have covered the pair.
Taken in increasing signature, the pairs leave a Groebner basis when the
heap is empty.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from math import gcd
from typing import Iterable

from .division import _gate, _interreduce_forms, _members, _monic, _reduce, _room, _widened, divide
from .order import MonomialOrder, leading_term
from .ring import Polynomial, RingMismatchError, _merge, _set

# Most members completion may hold before it gives up with a ValueError.
MAX_BASIS_SIZE = 10_000


@dataclass(frozen=True, init=False)
class GroebnerBasis:
    """A generating set tagged with its order and reduced/unreduced status.

    There must be at least one generator, each nonzero and all of one
    ring; construction sorts them stably by leading monomial, smallest
    first, so equal bases compare equal structurally.

    A frozen dataclass of its three fields, compared, hashed, printed and
    pickled by value. ``_kernel`` holds the kernel's packing and the
    members' forms, sorted with them. ``buchberger``'s raw basis builds
    its new members' Polynomials when ``generators`` is first read; two
    threads may both build them, and they build equal tuples.
    """

    __slots__ = ("generators", "order", "reduced", "_kernel")

    generators: tuple[Polynomial, ...]
    order: MonomialOrder
    reduced: bool

    def __init__(self, generators: Iterable[Polynomial], order: MonomialOrder, reduced: bool):
        generators = tuple(generators)
        if not generators:
            raise ValueError("empty generating set")
        packing, _, forms = _gate(list(generators), order)
        self._hold(packing, forms, generators, generators[0].context, order, reduced)

    @classmethod
    def _of_forms(cls, packing, forms, given, context, order: MonomialOrder, reduced: bool) -> GroebnerBasis:
        basis = object.__new__(cls)
        basis._hold(packing, forms, given, context, order, reduced)
        return basis

    def _hold(self, packing, forms, given, context, order: MonomialOrder, reduced: bool) -> None:
        """Hold the kernel's forms in one packing, given[i] the Polynomial
        of forms[i] or None, sorted stably on the forms' order keys. The
        missing Polynomials, of the ring context, are built when first
        read."""
        ordered = sorted(range(len(forms)), key=lambda k: forms[k].key)
        forms, given = tuple(forms[k] for k in ordered), tuple(given[k] for k in ordered)
        _set(self, order=order, reduced=reduced, _kernel=(packing, forms, given, context))
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
        return self._kernel[3]

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
    u = Polynomial(p.context, {lcm / lt_p.monomial: 1 / lt_p.coefficient})
    v = Polynomial(p.context, {lcm / lt_q.monomial: 1 / lt_q.coefficient})
    return u * p - v * q


def normal_form(
    f: Polynomial, basis: list[Polynomial], order: MonomialOrder
) -> Polynomial:
    """Remainder of f under division by the basis list.

    No term of the result is divisible by any basis leading term; the
    result is zero exactly when f reduces to zero against the list.
    Repeating a division of the same polynomial by the same list returns
    the first result (``division``).
    """
    return divide(f, list(basis), order).remainder


def buchberger(
    generators: list[Polynomial], order: MonomialOrder, stats: dict | None = None
) -> GroebnerBasis:
    """Complete a generating set to a Groebner basis (see the module
    docstring).

    Zero generators are stripped first; an empty, all-zero or mixed-ring
    input is an error. The result holds the inputs as given; its other
    members depend on this algorithm, so only ``reduce_basis`` of it is
    unique. A basis of more than ``MAX_BASIS_SIZE`` members raises a
    ValueError, so a runaway computation fails cleanly instead of
    looping without bound.

    Given a dict as stats, completion adds its work to it as it goes, so
    when it raises the record holds the counts so far:

    - ``pairs_formed``, the J-pairs formed. Each is either pruned, by a
      syzygy (``pruned_syzygy``) or by a member that covers it
      (``pruned_cover``), or reduced (``s_pairs_reduced``);
    - ``inputs_reduced``, the inputs that the inputs before them reduced;
    - ``new_members`` and ``zero_reductions``: each reduced pair or
      input gives one of these two, since no reduced pair is singular;
    - ``widenings``, the number of times the packed fields doubled
      because a product or a new member outgrew them; it depends on the
      inputs alone;
    - ``basis_high_water``, the most members held, kept as a maximum.

    So ``pairs_formed = pruned_syzygy + pruned_cover + s_pairs_reduced``
    and ``s_pairs_reduced + inputs_reduced = new_members +
    zero_reductions``.
    """
    inputs = [g for g in generators if not g.is_zero()]
    if not inputs:
        raise ValueError("empty generating set")

    # The raw basis's forms, and a bound on every field of their terms:
    # fields wide enough for twice the bound hold every S-polynomial. They
    # start as the inputs' degree bounds ask, whatever forms the inputs
    # hold, so the widenings depend on the inputs alone.
    packing, degree, forms = _gate(inputs, order)
    counts = {} if stats is None else stats
    for name in _STATS:
        counts.setdefault(name, 0)
    counts["basis_high_water"] = max(counts["basis_high_water"], len(forms))
    packing, forms = _widened(packing, forms, _room(degree))
    # Member n is the form members[n] = forms[place[n]], of signature
    # t * e_i with i = index[n]: sigs[n] is t * LM(e_i's member) packed, and
    # excess[n] its order key less the key of the member's own lead.
    place, members, sigs, excess, index = [], [], [], [], []
    by_index: list[list[int]] = [[] for _ in inputs]  # the members of each index
    syzygies: list[list[int]] = [[] for _ in inputs]  # each index's known syzygies, minimal
    # (signature key, index, key of the lcm, a, b): the J-pair of members a
    # and b, of a's signature times lcm / LM(a).
    queue: list[tuple[int, int, int, int, int]] = []
    bound = 0  # no field of a member's signature exceeds it

    def widen() -> None:
        """Double the fields and repack all that is packed in them. The
        repacking keeps the order, so the queue stays a heap."""
        nonlocal packing
        old = packing
        packing, forms[:] = _widened(old, forms)
        counts["widenings"] += 1
        lcm, key = packing.lcm, packing.key
        members[:] = [forms[k] for k in place]
        sigs[:] = [old.repack(sig, packing) for sig in sigs]
        excess[:] = [key(sig) - form.key for sig, form in zip(sigs, members)]
        for known in syzygies:
            known[:] = [old.repack(z, packing) for z in known]
        for n, (_, i, _, a, b) in enumerate(queue):
            k_lcm = key(lcm(members[a].lead, members[b].lead))
            queue[n] = (excess[a] + k_lcm, i, k_lcm, a, b)

    def enter(form) -> int:
        """Append a new member's form to the raw basis; its place there."""
        nonlocal degree
        forms.append(form)
        counts["new_members"] += 1
        counts["basis_high_water"] = max(counts["basis_high_water"], len(forms))
        if len(forms) > MAX_BASIS_SIZE:
            raise ValueError(f"basis size exceeded the cap of {MAX_BASIS_SIZE} elements")
        degree = max(degree, form.degree)
        return len(forms) - 1

    def add(k: int, sig: int, e: int, i: int) -> None:
        """Make forms[k] a member, of signature sig of index i and excess e,
        with a principal syzygy and a J-pair for each earlier member."""
        nonlocal bound
        new = len(members)
        place.append(k)
        members.append(forms[k])
        sigs.append(sig)
        excess.append(e)
        index.append(i)
        by_index[i].append(new)
        bound = max(bound, packing.largest(sig))
        while _room(max(degree, bound)) > packing.width:
            widen()
        lcm, key, guards = packing.lcm, packing.key, packing.guards
        sig, e, t = sigs[new], excess[new], members[new].lead
        for n in range(new):
            if excess[n] == e and index[n] == i:
                continue  # equal signatures: a singular pair
            u = members[n].lead
            m = lcm(t, u)
            k_m = key(m)
            # Of the syzygy g * U_new - new * U_g, g = members[n], and of the
            # J-pair, the side of the larger signature is the one of larger
            # (excess, index).
            if (e, i) > (excess[n], index[n]):
                side, z, j_sig, pair = i, sig + u, sig + m - t, (e + k_m, i, k_m, new, n)
            else:
                side, z, j_sig, pair = index[n], sigs[n] + t, sigs[n] + m - u, (excess[n] + k_m, index[n], k_m, n, new)
            _insert(syzygies[side], z, guards)
            counts["pairs_formed"] += 1
            # Coprime leads: the syzygy's signature is the pair's.
            if m == t + u or _divisible(j_sig, syzygies[side], guards):
                counts["pruned_syzygy"] += 1
            else:
                heappush(queue, pair)

    # The inputs in increasing order of leads, each reduced by the ones
    # before it as they were reduced: each nonzero result is the member of
    # signature e_i, and the module order weighs e_i by its lead. Weighed
    # by the leads as given, katsura-3 under lex kept 26 members, not 18.
    starts: list[int] = []  # the place in forms of each nonzero one
    for k in sorted(range(len(inputs)), key=lambda k: forms[k].key):
        while True:
            f, steps = forms[k], []
            records = _reduce(dict([(f.key, f.lc), *f.tail]), [forms[x] for x in starts], degree, packing, steps)
            if records is not None:
                break
            widen()
        if not steps:
            starts.append(k)
            continue
        counts["inputs_reduced"] += 1
        if not records:
            counts["zero_reductions"] += 1
            continue
        starts.append(enter(_monic(records, packing)))

    for i, k in enumerate(starts):
        add(k, forms[k].lead, 0, i)

    while queue:
        pair = heappop(queue)
        k_sig, i, k_lcm, a, b = pair
        f_a, f_b = members[a], members[b]
        guards = packing.guards
        sig = sigs[a] + packing.lcm(f_a.lead, f_b.lead) - f_a.lead
        if _divisible(sig, syzygies[i], guards):
            counts["pruned_syzygy"] += 1
            continue
        # A member of this index covers the pair: its multiple of this
        # signature has a smaller lead.
        above = sig | guards
        if any((above - sigs[n]) & guards == guards and k_sig - excess[n] < k_lcm for n in by_index[i]):
            counts["pruned_cover"] += 1
            continue
        k_u, k_v = k_lcm - f_a.key, k_lcm - f_b.key
        common = gcd(f_a.lc, f_b.lc)
        u, v = f_b.lc // common, f_a.lc // common
        p = _merge({k + k_u: u * c for k, c in f_a.tail}, [(k + k_v, -v * c) for k, c in f_b.tail])
        # Member n reduces a term only by a multiple of lower signature.
        below = [k_sig - e + (j < i) for e, j in zip(excess, index)]
        records = _reduce(p, members, degree, packing, None, below)
        if records is None:
            # A product outgrew the fields: once they are wider, this pair
            # comes off the queue first again.
            heappush(queue, pair)
            widen()
            continue
        counts["s_pairs_reduced"] += 1
        if not records:
            counts["zero_reductions"] += 1
            _insert(syzygies[i], sig, guards)
            continue
        form = _monic(records, packing)
        add(enter(form), sig, k_sig - form.key, i)

    given = inputs + [None] * (len(forms) - len(inputs))
    return GroebnerBasis._of_forms(packing, tuple(forms), given, inputs[0].context, order, reduced=False)


# The counters buchberger keeps in a stats record.
_STATS = ("pairs_formed", "pruned_syzygy", "pruned_cover", "s_pairs_reduced", "inputs_reduced",
          "new_members", "zero_reductions", "widenings", "basis_high_water")


def _divisible(sig: int, known: list[int], guards: int) -> bool:
    """Whether a packed monomial of known divides sig."""
    above = sig | guards
    for z in known:
        if (above - z) & guards == guards:
            return True
    return False


def _insert(known: list[int], sig: int, guards: int) -> None:
    """Add sig to a minimal list of packed signature monomials."""
    if not _divisible(sig, known, guards):
        known[:] = [z for z in known if ((z | guards) - sig) & guards != guards]
        known.append(sig)


def reduce_basis(basis: GroebnerBasis) -> GroebnerBasis:
    """Reduce a Groebner basis to the unique reduced basis.

    Drop any member whose leading term another surviving member's
    leading term divides, replace each survivor by its remainder modulo
    the others, and scale everything monic. Idempotent. It works on the
    forms the basis holds (``division._interreduce_forms``), so a raw
    basis's generators are neither read nor built.
    """
    packing, forms, _, context = basis._kernel
    packing, survivors = _interreduce_forms(forms, packing)
    members = _members(packing, survivors, [None] * len(survivors), context)
    return GroebnerBasis._of_forms(packing, survivors, members, context, basis.order, reduced=True)


def groebner_basis(generators: list[Polynomial], order: MonomialOrder) -> GroebnerBasis:
    """Convenience pipeline: complete, then reduce."""
    return reduce_basis(buchberger(generators, order))
