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
"Sparse polynomial division using a heap", 2011). The fields start from
the inputs' largest degree bound; when a step's products could reach a
guard bit (under lex the later exponents can grow past every input's
degree), ``_widened`` doubles them and the work starts again, so no
input is refused.

A ``Polynomial`` holds its monomials lex-packed in fields whose width
its degree bound sets (``ring._width``). Every conversion between that
layout and the kernel's packing, and from one kernel width to the next,
is a lookup in the packings' conversion tables (``Packing.keys_in``), so
a process converts each monomial once per pair of packings:
``_integral`` reads a polynomial's terms as the kernel's order keys, and
``_built`` builds a ``Polynomial`` in its layout from order keys.
``_reduce`` records each step as the divisor's index, the order key of
the shift, b and A (below), and ``divide`` builds its quotients and its
remainder from those keys.

The arithmetic is fraction-free. A polynomial is (s / t) * G with G's
coefficients coprime integers (``_integral``), and a divisor enters as
its form, G with a positive leading coefficient. A step on leading
coefficient c of P against a divisor of leading coefficient l
multiplies P by ``a = l / gcd(c, l)`` and subtracts ``b = c / gcd(c, l)``
times the shifted G, which cancels the lead in integers.

``_reduce`` is the one reduction loop. Its three entries are
``divide``; completion (``groebner.buchberger``), which reduces an
S-pair only by multiples of lower signature; and ``_interreduce_forms``,
which reduces each survivor's tail by the survivors of smaller lead, and
only when one of their leads divides a tail term: a survivor that none
divides is reduced already and keeps its terms. Each pop of ``_reduce``
is plain integer code: the order key is unkeyed inline
(``Packing.unkey``), one first-match loop over the leads carries the
``below`` bound, and the running polynomial is rescaled only when the
divisor's leading coefficient does not divide the popped one.

Each polynomial keeps its form, with its packing, in its ``_form`` slot.
A call bounds every field by the inputs' degree bounds
(``Polynomial._degree``), whether a divisor holds a form or not. It
divides in the widest packing of this order that a divisor holds, when
that is wide enough, else in the fields the bound asks for; it converts
only the divisors that hold no form in that packing, a form held under
another order counting as none, and stores each result on its divisor.
A dividend keeps its last division in its ``_division`` slot: the
order, the tuple of the divisors it divided by and the result. A call
under that order whose divisors are those very objects in that order
returns the kept result first, before it reads a form, the dividend's
terms or runs the kernel. A division's value depends only on the
dividend, the divisors and the order, and a ``Polynomial`` is a value,
so the kept result is right whatever was converted or widened in
between; holding the divisors, not their ids, keeps an id from being
reused. The dividend keeps the result, its steps and those divisors
alive while it lives. Each slot is replaced whole by one assignment, so
a thread reads one consistent tuple; neither changes a result, only how
much is converted and divided.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from heapq import heapify, heappop, heappush
from math import gcd
from operator import is_, or_
from typing import Callable, Iterable, NamedTuple, Sequence

from .order import GREVLEX, LEX, MonomialOrder, Packing
from .ring import Polynomial, RingMismatchError, VariableContext, _lowest, _set, _width


@dataclass(frozen=True, init=False)
class DivisionResult:
    """Quotients aligned with the divisor list, plus the remainder.

    Always satisfies f = sum(quotient[i] * divisor[i]) + remainder in
    exact arithmetic, with no remainder term divisible by any divisor's
    leading term.

    A frozen dataclass of its two fields, compared, hashed, printed and
    pickled by value. ``divide``'s result builds its quotients from the
    recorded steps when ``quotients`` is first read; two threads may both
    build them, and they build equal tuples.
    """

    __slots__ = ("quotients", "remainder", "_build")

    quotients: tuple[Polynomial, ...]
    remainder: Polynomial

    def __init__(self, quotients: Iterable[Polynomial], remainder: Polynomial):
        _set(self, quotients=tuple(quotients), remainder=remainder)

    @classmethod
    def _of_steps(cls, build: Callable[[], tuple[Polynomial, ...]], remainder: Polynomial) -> DivisionResult:
        result = object.__new__(cls)
        _set(result, remainder=remainder, _build=build)
        return result

    def __getattr__(self, name: str):
        # Reached only for a slot not set: divide's quotients before their
        # first read.
        if name != "quotients":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        quotients = self._build()
        _set(self, quotients=quotients)
        return quotients

    def __reduce__(self):
        return DivisionResult, (self.quotients, self.remainder)


def divide(
    f: Polynomial, divisors: list[Polynomial], order: MonomialOrder
) -> DivisionResult:
    """Divide f by the divisors, in their given order, under order.

    Each step cancels the leading term of the running polynomial against
    the first divisor whose leading term divides it, or moves that term
    to the remainder when none does, so permuting the divisors can change
    the result. f keeps its last result: divided again under the same
    order by the same divisor objects in the same places, it returns that
    result without dividing.
    """
    if not divisors:
        raise ValueError("divisor list must be nonempty")
    for g in divisors:
        if g.context != f.context:
            raise RingMismatchError("ring mismatch")
        if g.is_zero():
            raise ValueError("zero divisor")

    last = f._division  # the slot read once
    if last and last[0] is order and len(last[1]) == len(divisors) and all(map(is_, last[1], divisors)):
        return last[2]
    packing, degree, forms = _held(divisors, order, f._degree)
    while (result := _divide_packed(f, forms, degree, packing)) is None:
        packing, forms = _widened(packing, forms)
        for g, form in zip(divisors, forms):
            g._form = (packing, form)
    f._division = (order, tuple(divisors), result)
    return result


def _interreduce_forms(forms: Sequence[_Form], packing: Packing) -> tuple[Packing, list[_Form]]:
    """The reduced basis of a Groebner basis, from its forms in ascending
    order of leads: the survivors' packing and monic forms. A member whose
    lead a kept member's lead divides is dropped, and of two equal leads
    the first is kept. Each survivor becomes (lead + the remainder of its
    tail by the survivors of smaller lead) / lc, term order included; a
    survivor none of whose tail terms a smaller lead divides is already
    reduced, and is kept as its monic form with no kernel call. When a
    product could overflow the fields, they double and the survivors are
    repacked (``_widened``); the forms given are not touched."""
    # A lead that divides another is never larger, so in ascending order
    # every dominating member comes before what it dominates.
    kept: list[_Form] = []
    for form in forms:
        if not any(packing.divides(g.lead, form.lead) for g in kept):
            kept.append(form)
    degree = max(form.degree for form in forms)
    # One pass suffices: the kept leads are pairwise indivisible, so
    # interreduction only rewrites trailing terms and never disturbs the
    # leads the divisibility checks depend on. Every term the reduction of
    # a tail meets is below its own lead, and a lead that divides a term is
    # never above it, so no survivor of larger lead reduces it: each
    # survivor is reduced by the survivors before it, the same first match
    # as by all of them, and the remainder is the unique normal form.
    while True:
        reduced, leads = [], []
        unkey, guards = packing.unkey, packing.guards
        for j, g in enumerate(kept):
            # Packing.divides inline: whether a smaller lead divides a tail term.
            above = [unkey(k) | guards for k, _ in g.tail]
            if any((t - lead) & guards == guards for t in above for lead in leads):
                records = _reduce(dict(g.tail), kept[:j], degree, packing, None)
                if records is None:
                    break
                reduced.append(_monic([(g.key, g.lead, g.lc, 1), *records], packing))
            else:
                # What _reduce and _monic would give: G is primitive with a
                # positive lc, and the remainder comes largest first.
                reduced.append(_Form(g.lead, g.key, g.lc, sorted(g.tail, reverse=True), 1, g.lc, g.degree))
            leads.append(g.lead)
        else:
            return packing, reduced
        packing, kept = _widened(packing, kept)


def _gate(polynomials: list[Polynomial], order: MonomialOrder) -> tuple[Packing, int, tuple[_Form, ...]]:
    if any(g.context != polynomials[0].context for g in polynomials):
        raise RingMismatchError("ring mismatch")
    if not all(polynomials):
        raise ValueError("leading term of zero polynomial")
    return _held(polynomials, order, 0)


def _held(divisors: list[Polynomial], order: MonomialOrder, degree: int) -> tuple[Packing, int, tuple[_Form, ...]]:
    """A packing to divide in, the largest of degree and the divisors'
    degree bounds (``Polynomial._degree``), which no field of their terms
    exceeds under any order, and the divisors' forms in it: the form a
    divisor holds where it is in that packing, else converted and stored
    on the divisor. A form held under another order counts as absent."""
    held = [h if h and h[0].order is order else None for h in [g._form for g in divisors]]  # each slot read once
    degree = max(degree, *(g._degree for g in divisors))
    # Wider fields of this order, which a divisor holds, divide as well.
    width = max([_room(degree), *(h[0].width for h in held if h)])
    packing = order.packing(len(divisors[0].context), width)
    forms = []
    for g, h in zip(divisors, held):
        if h is None or h[0].width != width:
            h = g._form = (packing, _form(g, packing))
        forms.append(h[1])
    return packing, degree, tuple(forms)


class _Form(NamedTuple):
    """A nonzero divisor g = (s / t) * G, G primitive with a positive
    leading coefficient, in one packing."""

    lead: int  # the packed leading monomial
    key: int  # its order key
    lc: int  # G's leading coefficient
    tail: list[tuple[int, int]]  # G's other terms as (order key, coefficient)
    s: int
    t: int
    # No field of g's packed terms exceeds it: g's degree bound when
    # converted (``_form``), else the largest field ``_monic`` reads.
    degree: int


def _room(degree: int) -> int:
    """The field width with room for twice degree, and the guard bit: no
    product of two terms whose fields are at most degree overflows it."""
    return degree.bit_length() + 2


def _integral(g: Polynomial, packing: Packing) -> tuple[dict[int, int], int, int]:
    """g as (s / t) * G: G as a new dict from order key to coprime
    integers, then s and t. g's numerators over its denominator are
    (s / t) * G already, and its monomials convert to packing's keys
    through the table from its own layout (``Packing.keys_in``)."""
    numerators = g._numerators
    s = gcd(*numerators.values()) or 1
    keys = LEX.packing(len(g.context), g._width).keys_in(packing)
    return {keys[m]: c // s for m, c in numerators.items()}, s, g._den


def _form(g: Polynomial, packing: Packing) -> _Form:
    integral, s, t = _integral(g, packing)
    k_lead = max(integral)
    lc = integral.pop(k_lead)
    if lc < 0:
        lc, s = -lc, -s
        tail = [(k, -c) for k, c in integral.items()]
    else:
        tail = list(integral.items())
    return _Form(packing.unkey(k_lead), k_lead, lc, tail, s, t, g._degree)


def _monic(records: list[tuple[int, int, int, int]], packing: Packing) -> _Form:
    """The form of the monic polynomial whose terms the remainder records
    hold, the first record its lead: s is 1 and t the lead coefficient."""
    top = records[-1][3]  # scales only grow, so every scale divides it
    coefficients = [c * (top // scale) for _, _, c, scale in records]
    content = gcd(*coefficients)
    if coefficients[0] < 0:
        content = -content
    if content != 1:
        coefficients = [c // content for c in coefficients]
    lc = coefficients[0]
    k_lead, lead = records[0][:2]
    tail = [(k, c) for (k, _, _, _), c in zip(records[1:], coefficients[1:])]
    # No field exceeds the lead's degree under a graded order, or the
    # largest field of the records' OR under lex.
    degree = packing.largest(lead if packing.graded else reduce(or_, [lm for _, lm, _, _ in records]))
    return _Form(lead, k_lead, lc, tail, 1, lc, degree)


def _members(
    packing: Packing, forms: Sequence[_Form], given: Sequence[Polynomial | None], context: VariableContext
) -> tuple[Polynomial, ...]:
    """The polynomials of forms from ``_monic``: given[i] where it is one,
    else the monic Polynomial of forms[i]. Each member holds its form."""
    members = tuple(_polynomial(form, packing, context) if g is None else g for form, g in zip(forms, given))
    for member, form in zip(members, forms):
        member._form = (packing, form)
    return members


def _polynomial(form: _Form, packing: Packing, context: VariableContext) -> Polynomial:
    """The monic polynomial of a form from ``_monic``, lead first: its
    coefficients over its lead coefficient."""
    return _built(context, packing, dict([(form.key, form.lc), *form.tail]), form.lc)


def _built(context: VariableContext, packing: Packing, numerators: dict[int, int], den: int) -> Polynomial:
    """The Polynomial numerators / den, its keys order keys of packing,
    converted to the lex fields of its degree bound (``ring._width``)
    through the table to them (``Packing.keys_in``)."""
    if packing.graded:
        # The largest key has the largest degree field.
        degree = packing.largest(packing.unkey(max(numerators, default=0)))
    else:
        degree = sum(packing.unpack(reduce(or_, numerators, 0)))
    width = _width(degree)
    keys = packing.keys_in(LEX.packing(packing.nvars, width))
    return _lowest(context, {keys[k]: c for k, c in numerators.items()}, den, degree, width)


def _widened(packing: Packing, forms: Sequence[_Form], width: int = 0) -> tuple[Packing, list[_Form]]:
    """The packing of twice the width, or of width when given, of the same
    order and arity, and the forms in it, their keys converted by one
    table (``Packing.keys_in``). The fields must hold every form."""
    if width == packing.width:
        return packing, list(forms)
    new = packing.order.packing(packing.nvars, width or 2 * packing.width)
    moved, unkey = packing.keys_in(new), new.unkey
    return new, [
        _Form(unkey(moved[f.key]), moved[f.key], f.lc, [(moved[k], c) for k, c in f.tail], f.s, f.t, f.degree)
        for f in forms
    ]


def _reduce(
    p: dict[int, int],
    forms: Sequence[_Form],
    degree: int,
    packing: Packing,
    steps: list | None,
    below: Sequence[int] | None = None,
) -> list[tuple[int, int, int, int]] | None:
    """Reduce p, a dict from order key to integer coefficient, by the
    forms in one packing, consuming p; or None if a product could
    overflow its fields. Every term of p fits the fields, and no field of
    a form's terms exceeds degree.

    The remainder comes back as records (order key, packed monomial, c,
    A), largest first: the term c * monomial / A of p's remainder, A the
    scale when it moved. Each step is appended to steps, when given, as
    (form index, order key of the shift, b, A). When below is given,
    forms[i] reduces only terms whose order key is below below[i]:
    completion's bound on the signature of a step (see ``groebner``).
    """
    guards = packing.guards
    # Packing.unkey inline: under grevlex a key is 2 * D less its monomial,
    # D the key rounded up to the degree field; under lex and grlex a key
    # is its monomial.
    top = packing.top if packing.order is GREVLEX else 0
    # Every field of reach holds degree, so no field of a divisor term
    # times a shift exceeds that field of reach + shift.
    reach = degree * (guards >> (packing.width - 1))
    leads = [form.lead for form in forms]
    get, pop = p.get, p.pop
    heap = [-k for k in p]
    heapify(heap)
    records: list[tuple[int, int, int, int]] = []
    scale = 1  # A: the running polynomial is p / A
    previous = 1 - heap[0] if heap else 0  # above every key of p

    while heap:
        k_p = -heappop(heap)
        c_p = pop(k_p, None)
        if c_p is None:
            continue  # the entry of a term that cancelled
        lm_p = 2 * (-(-k_p >> top) << top) - k_p if top else k_p
        # The leading monomial must fall every step or the loop would not
        # halt, and only a monomial with clear guard bits is ordered by its
        # key: a field overflow that slipped past the reach test would show
        # here, on the step that takes its term.
        if k_p >= previous or lm_p & guards:
            raise RuntimeError("division lost the order of its monomials")
        previous = k_p
        # Packing.divides inline: lm_g divides lm_p.
        above = lm_p | guards
        i = 0
        for lm_g in leads:
            if (above - lm_g) & guards == guards and (below is None or k_p < below[i]):
                break
            i += 1
        else:
            records.append((k_p, lm_p, c_p, scale))
            continue
        if (reach + lm_p - lm_g) & guards:
            return None
        form = forms[i]
        k_shift = k_p - form.key
        lc = form.lc
        common = gcd(c_p, lc)
        b = c_p // common
        if common != lc:
            a = lc // common
            scale *= a
            for k, c in p.items():
                p[k] = c * a
        # lm_p falls every step, so no divisor sees the same shift twice.
        # The lead's own product cancels a * c_p exactly, and c_p has left
        # p already.
        if steps is not None:
            steps.append((i, k_shift, b, scale))
        for k_t, c_t in form.tail:
            m = k_t + k_shift
            acc = get(m)
            if acc is None:
                p[m] = -b * c_t
                heappush(heap, -m)
            else:
                acc -= b * c_t
                if acc:
                    p[m] = acc
                else:
                    del p[m]
    return records


def _divide_packed(f: Polynomial, forms: Sequence[_Form], degree: int, packing: Packing) -> DivisionResult | None:
    """The division by the forms in their packing, or None if a product
    could overflow its fields. No field of an input term exceeds degree."""
    p, n, d = _integral(f, packing)
    steps: list[tuple[int, int, int, int]] = []  # (divisor, key of the shift, b, A)
    records = _reduce(p, forms, degree, packing, steps)
    if records is None:
        return None
    context = f.context

    # The scales only grow, so every A divides the last one, top.
    top = steps[-1][3] if steps else 1

    def quotients() -> tuple[Polynomial, ...]:
        # A step's quotient term (n / d) * b / A / (s / t), over d * |s| * top.
        terms: list[dict[int, int]] = [{} for _ in forms]
        for i, k_shift, b, scale in steps:
            form = forms[i]
            terms[i][k_shift] = (n if form.s > 0 else -n) * b * form.t * (top // scale)
        return tuple(_built(context, packing, q, d * abs(form.s) * top) for q, form in zip(terms, forms))

    # A remainder term (n / d) * c / A, over d * top.
    remainder = _built(context, packing, {k: n * c * (top // scale) for k, _, c, scale in records}, d * top)
    return DivisionResult._of_steps(quotients, remainder)
