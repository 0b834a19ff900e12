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

The arithmetic is fraction-free. Each divisor g enters as its primitive
integer form: g = (s / t) * G with G's coefficients coprime integers and
its leading coefficient positive. The dividend enters the same way, as
f = (n / d) * P. A step on leading coefficient c of P against a divisor
of leading coefficient l multiplies P by ``a = l / gcd(c, l)`` and
subtracts ``b = c / gcd(c, l)`` times the shifted G, which cancels the
lead in integers. With A the product of every ``a`` so far, the running
polynomial is always (n / d) * P / A; a term c * m of P that moves to
the remainder is kept as the integer record (key of m, m, c, A) of the
step that moved it, and the step's quotient term is (n / d) * b / A /
(s / t). The loop makes ``int`` products and one ``gcd`` per step, and
strips no content from P, whose coefficients grow with A.

There is one reduction loop, ``_reduce``, and four entries to it:

- ``divide`` reads each remainder record as ``Fraction(n * c, d * A)``
  and records its steps for the quotients;
- completion (``groebner.buchberger``) reduces each input by the inputs
  before it, and each S-pair from two members' forms, as
  ``(l_j / g) * u * G_i - (l_i / g) * v * G_j`` with ``g = gcd(l_i, l_j)``
  and u, v the shifts to the lcm of their leading monomials, which
  cancels the leads in integers; up to a scalar that is the
  S-polynomial. An S-pair is reduced only by multiples of lower
  signature: given ``below``, ``_reduce`` lets the i-th form reduce a
  term only when the term's order key is below ``below[i]``, one
  comparison per step;
- ``_interreduce_forms`` keeps each member of a Groebner basis whose
  lead no kept member's lead divides, and reduces each kept member's tail
  by all of them;
- ``pseudo_divide`` divides one integer coefficient list by another,
  lowest degree first, in a one-variable lex packing where x^k packs to
  k. It reads the records and steps at the last scale A, so it returns
  A times the quotient and remainder over Q, all in integers. The Sturm
  chain of ``ideal.univariate_real_roots`` is built with it.

Completion and interreduction read the records as one primitive
integer form, ``c * (A_last / A)`` divided by the content, whose first
record is the lead: the form of the monic member, ``t`` its lead
coefficient.

``groebner.buchberger`` drives one completion state (``_Completion``):
the packing, the raw basis's forms and a bound on every field of their
terms; ``buchberger`` keeps the signatures, syzygies and J-pairs itself,
as packed monomials and order keys in the state's packing. A new member
stays a form: under a graded order its bound is its lead's degree
field, and under lex the largest field of the OR of its monomials, with
no field summed. Completion builds no
``Polynomial``: the raw ``GroebnerBasis`` it returns holds the state's
packing and forms, and builds its new members when they are first read.
Every ``GroebnerBasis`` holds its packing and forms, and
``groebner.reduce_basis`` interreduces those forms directly
(``_interreduce_forms``), so under ``groebner.groebner_basis`` a
``Polynomial`` is built only for each member of the reduced basis. Each
build unpacks every distinct packed monomial once, so its members share
``Monomial`` objects (``_members``).

The fields grow one way. When a step could overflow them, or a new
member's degree outgrows them, ``_widened`` doubles the width and
repacks the forms integer to integer (``Packing.repack``, each distinct
key once), so no form is converted from ``Fraction`` coefficients again:
``divide`` retries on its divisors' widened forms and stores them on the
divisors, ``_interreduce_forms`` retries on its survivors' and
completion on its members', and ``buchberger`` repacks its signature
and syzygy monomials with them and keys its J-pairs again.

Converting a divisor to its form costs as much as a few steps, and
callers use the same polynomials again and again: reduction and
membership tests divide by one basis. So each polynomial keeps its form,
with the packing it is in, in its ``_form`` slot (``ring.Polynomial``).
A call reads each divisor's slot once and divides in the widest packing
of this order that a divisor holds, when that is wide enough, else in
the fields the degrees ask for. It converts only the divisors that hold
no form in that width, and stores each result on its divisor. Each build
of kernel members (``_members``: a raw basis's first read and
``groebner.reduce_basis``) stores each member's
form on it, so the queries on them never convert what the kernel made.
A held form is of this order when its packing's ``order`` is, and of
this arity because a polynomial's ring fixes it; two packings of one
order, arity and width lay a monomial out alike.
Polynomials are values, never mutated, so the form a polynomial holds
is its form in that packing. The slot is replaced whole, by one
assignment of a pair that is never mutated, so a thread reads one
consistent pair, and threads that convert the same divisor store equal
forms; a completion's state is its own. The slot changes no result, only
how much is converted. ``pseudo_divide`` builds its one form itself and
stores it on nothing, so root isolation between two queries on a basis
converts none of that basis's members.

Quotients are not built during the division. Each step is recorded as
(divisor index, shift, b, A), and ``DivisionResult.quotients`` turns
those records into polynomials when it is first read; callers that want
only the remainder never pay for them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from typing import Callable, Iterable, NamedTuple, Sequence

from .order import LEX, MonomialOrder, Packing
from .ring import Monomial, Polynomial, RingMismatchError


class DivisionResult:
    """Quotients aligned with the divisor list, plus the remainder.

    Always satisfies f = sum(quotient[i] * divisor[i]) + remainder in
    exact arithmetic, with no remainder term divisible by any divisor's
    leading term.

    Immutable, and compared, hashed, printed and pickled by value.
    ``divide`` fills in the remainder as it goes, at the running scale of
    its fraction-free loop, but only records its steps as (divisor index,
    shift, b, A). It passes a function that builds the quotients from
    those records, and the divisors' integer forms, in place of them; the
    first read of ``quotients`` replaces the function by the tuple it
    builds. Two threads may both build it; they build equal tuples.
    """

    __slots__ = ("remainder", "_quotients")

    def __init__(self, quotients: Iterable[Polynomial] | Callable[[], tuple], remainder: Polynomial):
        object.__setattr__(self, "remainder", remainder)
        object.__setattr__(self, "_quotients", quotients if callable(quotients) else tuple(quotients))

    @property
    def quotients(self) -> tuple[Polynomial, ...]:
        quotients = self._quotients
        if callable(quotients):
            quotients = quotients()
            object.__setattr__(self, "_quotients", quotients)
        return quotients

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return DivisionResult, (self.quotients, self.remainder)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DivisionResult):
            return NotImplemented
        return self.remainder == other.remainder and self.quotients == other.quotients

    def __hash__(self) -> int:
        return hash((self.quotients, self.remainder))

    def __repr__(self) -> str:
        return f"DivisionResult(quotients={self.quotients!r}, remainder={self.remainder!r})"


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

    packing, degree, forms = _held(divisors, order, max(map(sum, f.terms), default=0))
    while (result := _divide_packed(f, forms, degree, packing)) is None:
        packing, forms = _widened(packing, forms)
        for g, form in zip(divisors, forms):
            g._form = (packing, form)
    return result


def _interreduce_forms(forms: Sequence[_Form], packing: Packing) -> tuple[Packing, list[_Form]]:
    """The reduced basis of a Groebner basis, from its forms in ascending
    order of leads: the survivors' packing and monic forms. A member whose
    lead a kept member's lead divides is dropped, and of two equal leads
    the first is kept. Each survivor becomes (lead + the remainder of its
    tail by the survivors) / lc, term order included. When a product could
    overflow the fields, they double and the survivors are repacked
    (``_widened``); the forms given are not touched."""
    # A lead that divides another is never larger, so in ascending order
    # every dominating member comes before what it dominates.
    kept: list[_Form] = []
    for form in forms:
        if not any(packing.divides(g.lead, form.lead) for g in kept):
            kept.append(form)
    degree = max(form.degree for form in forms)
    # One pass suffices: the kept leads are pairwise indivisible, so
    # interreduction only rewrites trailing terms and never disturbs the
    # leads the divisibility checks depend on. Every tail term is below its
    # own lead, which therefore never divides it, so each tail is reduced
    # by one list of all survivors; that list is a Groebner basis, so the
    # remainder is the unique normal form.
    while True:
        reduced = []
        for g in kept:
            records = _reduce(dict(g.tail), kept, degree, packing, None)
            if records is None:
                break
            reduced.append(_monic([(g.key, g.lead, g.lc, 1), *records], packing))
        else:
            return packing, reduced
        packing, kept = _widened(packing, kept)


def pseudo_divide(f: list[int], g: list[int]) -> tuple[list[int], list[int]]:
    """Univariate division of integer coefficient lists, lowest degree
    first, g's last coefficient nonzero: (q, r) with A * f = q * g + r
    for the positive scale A of the loop, deg r < deg g, and r free of
    leading zeros ([] when it is zero).

    q and r are A times ``divide``'s quotient and remainder of the same
    polynomials. No polynomial's form is read or stored.
    """
    degree = len(g) - 1
    # g = sign * G with G's lead positive, so q takes the sign; x^k packs
    # to k, which is its own key.
    sign = 1 if g[-1] > 0 else -1
    tail = [(k, sign * c) for k, c in enumerate(g[:-1]) if c]
    form = _Form(degree, degree, sign * g[-1], tail, sign, 1, degree)
    # Room for twice the largest degree, and the guard bit: no overflow.
    packing = LEX.packing(1, max(len(f) - 1, degree).bit_length() + 2)
    steps: list[tuple[int, int, int, int]] = []
    records = _reduce({k: c for k, c in enumerate(f) if c}, [form], degree, packing, steps)
    # In one variable a term moves to the remainder only once the lead is
    # below deg g, after the last step, so every record is at scale top.
    top = steps[-1][3] if steps else 1
    q = [0] * (steps[0][1] + 1 if steps else 0)
    for _, shift, b, scale in steps:
        q[shift] = sign * b * (top // scale)
    r = [0] * (records[0][0] + 1 if records else 0)
    for k, _, c, _ in records:
        r[k] = c
    return q, r


def _gate(polynomials: list[Polynomial], order: MonomialOrder) -> tuple[Packing, tuple[_Form, ...]]:
    if any(g.context != polynomials[0].context for g in polynomials):
        raise RingMismatchError("ring mismatch")
    if not all(polynomials):
        raise ValueError("leading term of zero polynomial")
    packing, _, forms = _held(polynomials, order, 0)
    return packing, forms


def _held(divisors: list[Polynomial], order: MonomialOrder, degree: int) -> tuple[Packing, int, tuple[_Form, ...]]:
    """A packing to divide in, a bound on every field of the divisors'
    terms and on degree (a held form's bound, else the bound ``_bound``
    would give the form), and the divisors' forms in it: the form a
    divisor holds where it is in that packing, else converted and stored
    on the divisor."""
    held = [g._form for g in divisors]  # each slot read once
    # A graded field is a total degree; a lex field one exponent.
    largest = max if order is LEX else sum
    degree = max(degree, *(h[1].degree if h else max(map(largest, g.terms)) for g, h in zip(divisors, held)))
    # Room for twice the largest input degree, and the guard bit; wider
    # fields of this order, which a divisor holds, divide as well.
    width = max([degree.bit_length() + 2, *(h[0].width for h in held if h and h[0].order is order)])
    packing = order.packing(len(divisors[0].context), width)
    forms = []
    for g, h in zip(divisors, held):
        if h is None or h[0].order is not order or h[0].width != width:
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
    degree: int  # no field of g's packed terms exceeds it (``_bound``)


def _integral(g: Polynomial, packing: Packing) -> tuple[dict[int, int], int, int]:
    """g as (s / t) * G: G as a dict from order key to coprime integers,
    then s and t."""
    pack, key = packing.pack, packing.key
    t = lcm(*[c.denominator for c in g.terms.values()])
    integral = {key(pack(m)): c.numerator * (t // c.denominator) for m, c in g.terms.items()}
    s = 0
    for v in integral.values():
        s = gcd(s, v)
        if s == 1:
            break
    if s > 1:
        integral = {k: v // s for k, v in integral.items()}
    return integral, s or 1, t


def _form(g: Polynomial, packing: Packing) -> _Form:
    integral, s, t = _integral(g, packing)
    k_lead = max(integral)
    lc = integral.pop(k_lead)
    if lc < 0:
        lc, s = -lc, -s
        tail = [(k, -c) for k, c in integral.items()]
    else:
        tail = list(integral.items())
    lead = packing.unkey(k_lead)
    # Under lex a key is its packed monomial.
    return _Form(lead, k_lead, lc, tail, s, t, _bound(packing, lead, integral))


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
    return _Form(lead, k_lead, lc, tail, 1, lc, _bound(packing, lead, (lm for _, lm, _, _ in records)))


def _bound(packing: Packing, lead: int, monomials: Iterable[int]) -> int:
    """No field of a form's packed monomials exceeds it: under a graded
    order the degree of its lead, which no term exceeds; under lex the
    largest field of the monomials' OR, each field of which is at least
    that field of every one."""
    if not packing.graded:
        for m in monomials:
            lead |= m
    return packing.largest(lead)


def _members(
    packing: Packing, forms: Sequence[_Form], given: Sequence[Polynomial | None], wrap: Callable[[dict], Polynomial]
) -> tuple[Polynomial, ...]:
    """The polynomials of forms from ``_monic``: given[i] where it is one,
    else the monic Polynomial of forms[i]. Each distinct packed monomial is
    unpacked once, so the members built share their Monomials. Each
    member holds its form."""
    unpack, unkey = packing.unpack, packing.unkey
    monomials: dict[int, Monomial] = {}

    def monomial(k: int) -> Monomial:
        m = monomials.get(k)
        if m is None:
            m = monomials[k] = unpack(unkey(k))
        return m

    members = tuple(_polynomial(form, monomial, wrap) if g is None else g for form, g in zip(forms, given))
    for member, form in zip(members, forms):
        member._form = (packing, form)
    return members


def _polynomial(form: _Form, monomial: Callable[[int], Monomial], wrap: Callable[[dict], Polynomial]) -> Polynomial:
    """The monic polynomial of a form from ``_monic``, lead first, each
    monomial read from its order key."""
    lc = form.lc
    terms = {monomial(form.key): Fraction(1)}
    for k, c in form.tail:
        terms[monomial(k)] = Fraction(c, lc)
    return wrap(terms)


def _widened(packing: Packing, forms: Sequence[_Form], width: int = 0) -> tuple[Packing, list[_Form]]:
    """The packing of twice the width, or of width when given, of the same
    order and arity, and the forms in it, repacked integer to integer
    (``Packing.repack``), each distinct key once. The fields must hold
    every form."""
    new = packing.order.packing(packing.nvars, width or 2 * packing.width)
    keys = {k for f in forms for k, _ in f.tail} | {f.key for f in forms}
    unkey, repack, key = packing.unkey, packing.repack, new.key
    moved = {k: key(repack(unkey(k), new)) for k in keys}
    unkey = new.unkey
    return new, [
        _Form(unkey(moved[f.key]), moved[f.key], f.lc, [(moved[k], c) for k, c in f.tail], f.s, f.t, f.degree)
        for f in forms
    ]


class _Completion:
    """Completion's raw basis in one packing: its forms, and a bound on
    every field of their terms.

    Fields wide enough for twice the bound hold every S-polynomial. When
    a step could overflow them, or a new member outgrows them, ``widen``
    doubles them (``_widened``): ``packing`` and ``forms`` are replaced by
    their repacked values, and ``widenings`` counts it. The state starts
    in the fields its inputs' bound asks for, whatever forms they hold,
    so its widenings depend on the inputs alone.
    """

    __slots__ = ("packing", "forms", "degree", "widenings")

    def __init__(self, polynomials: list[Polynomial], order: MonomialOrder):
        packing, forms = _gate(polynomials, order)
        self.degree = max(form.degree for form in forms)
        width = self.degree.bit_length() + 2
        if packing.width != width:
            packing, forms = _widened(packing, forms, width)
        self.packing, self.forms = packing, list(forms)
        self.widenings = 0

    def widen(self) -> Callable[[int], int]:
        """Double the fields and repack the forms; the map of a packed
        monomial of the old fields into the new."""
        old = self.packing
        self.packing, self.forms = _widened(old, self.forms)
        self.widenings += 1
        return partial(old.repack, other=self.packing)


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
    (form index, shift, b, A). When below is given, forms[i] reduces
    only terms whose order key is below below[i]: completion's bound on
    the signature of a step (see ``groebner``).
    """
    unkey, guards = packing.unkey, packing.guards
    # Every field of reach holds degree, so no field of a divisor term
    # times a shift exceeds that field of reach + shift.
    reach = degree * (guards >> (packing.width - 1))
    leads = [form.lead for form in forms]
    heap = [-k for k in p]
    heapify(heap)
    records: list[tuple[int, int, int, int]] = []
    scale = 1  # A: the running polynomial is p / A
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
        # Packing.divides inline: lm_g divides lm_p.
        above = lm_p | guards
        for i, lm_g in enumerate(leads):
            if (above - lm_g) & guards == guards:
                if below is not None and k_p >= below[i]:
                    continue
                shift = lm_p - lm_g
                if (reach + shift) & guards:
                    return None
                form = forms[i]
                k_shift = k_p - form.key
                common = gcd(c_p, form.lc)
                a, b = form.lc // common, c_p // common
                if a != 1:
                    scale *= a
                    for k in p:
                        p[k] *= a
                # lm_p falls every step, so no divisor sees the same shift
                # twice. The lead's own product cancels a * c_p exactly, and
                # c_p has left p already.
                if steps is not None:
                    steps.append((i, shift, b, scale))
                for k_t, c_t in form.tail:
                    m = k_t + k_shift
                    acc = p.get(m)
                    if acc is None:
                        p[m] = -b * c_t
                        heappush(heap, -m)
                    else:
                        acc -= b * c_t
                        if acc:
                            p[m] = acc
                        else:
                            del p[m]
                break
        else:
            records.append((k_p, lm_p, c_p, scale))
    return records


def _divide_packed(f: Polynomial, forms: Sequence[_Form], degree: int, packing: Packing) -> DivisionResult | None:
    """The division by the forms in their packing, or None if a product
    could overflow its fields. No input term has a total degree above
    degree."""
    p, n, d = _integral(f, packing)
    steps: list[tuple[int, int, int, int]] = []  # (divisor, shift, b, A)
    records = _reduce(p, forms, degree, packing, steps)
    if records is None:
        return None
    unpack, wrap = packing.unpack, f._wrap

    def quotients() -> tuple[Polynomial, ...]:
        terms: list[dict] = [{} for _ in forms]
        for i, shift, b, step_scale in steps:
            form = forms[i]
            terms[i][unpack(shift)] = Fraction(n * b * form.t, d * step_scale * form.s)
        return tuple(wrap(q) for q in terms)

    return DivisionResult(quotients, wrap({unpack(lm): Fraction(n * c, d * scale) for _, lm, c, scale in records}))
