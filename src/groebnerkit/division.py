"""Division of a polynomial by an ordered list of divisors.

Long division generalized to several variables: repeatedly cancel the
leading term of the running polynomial against the first divisor whose
leading term divides it; when none does, the leading term moves to the
remainder. The divisor list is ordered and the first-match rule is kept
deliberately, so swapping divisors can change the outcome — a property
of the algorithm itself, not an implementation accident.

Inside, every monomial is one ``int`` in the order's packed form (see
``order.py``): a product is an addition, a divisibility test a mask
test, and a comparison under the order an ``int`` comparison. The
running polynomial is a dict from order key to coefficient, and its
leading term comes off a heap of negated keys (Monagan and Pearce,
"Sparse polynomial division using a heap", 2011). A term that cancels
leaves its heap entry behind, and that entry is skipped when it comes
up, so no step rescans the polynomial. The field width starts from the
inputs' largest total degree; when a step's products could reach a
guard bit (under lex the later exponents can grow past every input's
degree) the division starts again with fields twice as wide, so no
input is refused. ``Monomial`` and ``Polynomial`` stay the boundary:
they are packed on the way in and unpacked on the way out, and the
quotients and remainder are those of the unpacked algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush

from .order import MonomialOrder, Packing
from .ring import Polynomial, RingMismatchError


@dataclass(frozen=True)
class DivisionResult:
    """Quotients aligned with the divisor list, plus the remainder.

    Always satisfies f = sum(quotient[i] * divisor[i]) + remainder in
    exact arithmetic, with no remainder term divisible by any divisor's
    leading term.
    """

    quotients: tuple[Polynomial, ...]
    remainder: Polynomial


def divide(
    f: Polynomial, divisors: list[Polynomial], order: MonomialOrder
) -> DivisionResult:
    if not divisors:
        raise ValueError("divisor list must be nonempty")
    for g in divisors:
        if g.context != f.context:
            raise RingMismatchError("ring mismatch")
        if g.is_zero():
            raise ValueError("zero divisor")

    degree = max(max(map(sum, g.terms), default=0) for g in (f, *divisors))
    # Room for twice the largest input degree, and the guard bit.
    width = degree.bit_length() + 2
    while True:
        result = _divide_packed(f, divisors, degree, order.packing(len(f.context), width))
        if result is not None:
            return result
        width *= 2


def _divide_packed(
    f: Polynomial, divisors: list[Polynomial], degree: int, packing: Packing
) -> DivisionResult | None:
    """The division in one packing, or None if a product could overflow
    its fields. No input term has a total degree above degree."""
    pack, key, unkey, divides = packing.pack, packing.key, packing.unkey, packing.divides
    guards = packing.guards
    # Every field of reach holds degree, so no field of a divisor term
    # times a shift exceeds that field of reach + shift.
    reach = degree * (guards >> (packing.width - 1))
    # Per divisor: packed lead, its key, its coefficient, and the tail as
    # (key, coefficient).
    leads = []
    for g in divisors:
        keyed = {key(pack(m)): c for m, c in g.terms.items()}
        k_lead = max(keyed)
        tail = [(k, c) for k, c in keyed.items() if k != k_lead]
        leads.append((unkey(k_lead), k_lead, keyed[k_lead], tail))

    p = {key(pack(m)): c for m, c in f.terms.items()}
    heap = [-k for k in p]
    heapify(heap)
    quotients: list[dict[int, Fraction]] = [{} for _ in divisors]
    remainder: dict[int, Fraction] = {}
    previous = None

    while heap:
        k_p = -heappop(heap)
        c_p = p.pop(k_p, None)
        if c_p is None:
            continue  # the entry of a term that cancelled
        lm_p = unkey(k_p)
        # The leading monomial must fall every step or the loop would not
        # halt, and only a monomial with clear guard bits is ordered by its
        # key: a field overflow that slipped past the reach test would show
        # here, on the step that takes its term.
        if (previous is not None and k_p >= previous) or lm_p & guards:
            raise RuntimeError("division lost the order of its monomials")
        previous = k_p
        for i, (lm_g, k_g, lc_g, tail_g) in enumerate(leads):
            if divides(lm_g, lm_p):
                shift = lm_p - lm_g
                if (reach + shift) & guards:
                    return None
                k_shift = k_p - k_g
                factor = c_p / lc_g
                # lm_p falls every step, so no divisor sees the same shift
                # twice. The lead's own product cancels c_p exactly, and
                # c_p has left p already.
                quotients[i][shift] = factor
                for k_t, c_t in tail_g:
                    m = k_t + k_shift
                    acc = p.get(m)
                    if acc is None:
                        p[m] = -(factor * c_t)
                        heappush(heap, -m)
                    else:
                        acc = acc - factor * c_t
                        if acc:
                            p[m] = acc
                        else:
                            del p[m]
                break
        else:
            remainder[lm_p] = c_p

    unpack, wrap = packing.unpack, f._wrap
    return DivisionResult(
        quotients=tuple(wrap({unpack(m): c for m, c in q.items()}) for q in quotients),
        remainder=wrap({unpack(m): c for m, c in remainder.items()}),
    )
