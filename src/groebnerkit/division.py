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
- ``reduce_s_pair`` starts from two members' forms, as
  ``(l_j / g) * u * G_i - (l_i / g) * v * G_j`` with ``g = gcd(l_i, l_j)``
  and u, v the shifts to the lcm of their leading monomials, which
  cancels the leads in integers; up to a scalar that is the
  S-polynomial, so its normal form made monic is the completion's new
  member;
- ``interreduce`` keeps each member whose lead no kept member's lead
  divides, and reduces each kept member's tail by all of them;
- ``pseudo_divide`` divides one integer coefficient list by another,
  lowest degree first, in a one-variable lex packing where x^k packs to
  k. It reads the records and steps at the last scale A, so it returns
  A times the quotient and remainder over Q, all in integers. The Sturm
  chain of ``ideal.univariate_real_roots`` is built with it.

``reduce_s_pair`` and ``interreduce`` read the records as one
primitive integer form, ``c * (A_last / A)`` divided by the content,
whose first record is the lead; they build the monic ``Polynomial`` from it with one ``Fraction``
per term, and keep the form itself for the memo.

Converting a divisor to its form costs as much as a few steps, and
callers use the same polynomials again and again: completion divides by
its growing basis, a ``GroebnerBasis`` reads its members' leads off their
forms (``leading_monomials``), reduction and membership tests divide by
one basis. So the forms of the last list converted are kept in one
module-level memo, and each divisor's form is looked up there by
object identity, in any order. A call converts only the divisors the
memo does not hold, and then its list replaces the memo; a call that
converts none leaves the memo as it is. When it finds a form there, it
divides in the memo's fields if they are wider than it needs; when its
degrees outgrow them, the fields double, as after an overflow, and
every divisor is converted again. A new member from ``reduce_s_pair``
enters the memo as the member after its list, and the members from
``interreduce`` replace the memo, so completion, the bases built from
its members and the queries on them never convert what the kernel made.
Polynomials are values, never mutated, so the same object always has the
same form; the memo holds its polynomials, so their ids are not reused
while it lives. An entry is replaced whole and never mutated, so a
thread that reads it sees one consistent entry. The memo changes no
result, only how much is converted. ``pseudo_divide`` builds its one
form itself and neither reads nor replaces the memo, so root isolation
between two queries on a basis leaves that basis's forms in place.

Quotients are not built during the division. Each step is recorded as
(divisor index, shift, b, A), and ``DivisionResult.quotients`` turns
those records into polynomials when it is first read; callers that want
only the remainder never pay for them.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .order import LEX, MonomialOrder, Packing
from .ring import Monomial, Polynomial, RingMismatchError, _merge


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

    for packing, degree, forms in _packings(divisors, order, max(map(sum, f.terms), default=0)):
        result = _divide_packed(f, forms, degree, packing)
        if result is not None:
            return result


def reduce_s_pair(
    basis: list[Polynomial], i: int, j: int, order: MonomialOrder
) -> tuple[Polynomial, Monomial] | None:
    """The S-polynomial of basis[i] and basis[j] reduced modulo basis and
    made monic, with its leading monomial, or None when it reduces to zero.

    This is ``normal_form(s_polynomial(basis[i], basis[j]), basis)``
    scaled monic, term order included, for a list of nonzero polynomials
    in one ring. Its form enters the memo as the member after basis.
    """
    global _memo
    for packing, degree, forms in _packings(basis, order, 0):
        f_i, f_j = forms[i], forms[j]
        # Each field of the lcm is at most the larger lead's, so no field
        # of a shifted tail exceeds twice the degree, which fits.
        unpack, key = packing.unpack, packing.key
        k_lcm = key(packing.pack(unpack(f_i.lead).lcm(unpack(f_j.lead))))
        k_u, k_v = k_lcm - f_i.key, k_lcm - f_j.key
        common = gcd(f_i.lc, f_j.lc)
        a, b = f_j.lc // common, f_i.lc // common
        p = _merge({k + k_u: a * c for k, c in f_i.tail}, [(k + k_v, -b * c) for k, c in f_j.tail])
        records = _reduce(p, forms, degree, packing, None)
        if records is None:
            continue
        if not records:
            return None
        member, form = _monic(records, basis[0]._wrap, packing)
        _memo = (packing, (*basis, member), (*forms, form))
        return member, unpack(form.lead)


def interreduce(basis: list[Polynomial], order: MonomialOrder) -> tuple[Polynomial, ...]:
    """The reduced Groebner basis of a Groebner basis listed in ascending
    order of leading monomials, as a ``GroebnerBasis`` holds it.

    A member whose lead another kept member's lead divides is dropped, and
    of two equal leads the first is kept. Each survivor becomes
    ``(lead + divide(tail, survivors).remainder) / lc``, term order
    included. The survivors' forms replace the memo.
    """
    global _memo
    for packing, degree, forms in _packings(basis, order, 0):
        # A lead that divides another is never larger, so in ascending
        # order every dominating member comes before what it dominates.
        kept: list[_Form] = []
        for form in forms:
            if not any(packing.divides(g.lead, form.lead) for g in kept):
                kept.append(form)
        # One pass suffices: the kept leads are pairwise indivisible, so
        # interreduction only rewrites trailing terms and never disturbs
        # the leads the divisibility checks depend on. Every tail term is
        # below its own lead, which therefore never divides it, so each
        # tail is reduced by one list of all survivors; that list is a
        # Groebner basis, so the remainder is the unique normal form.
        reduced = []
        for g in kept:
            records = _reduce(dict(g.tail), kept, degree, packing, None)
            if records is None:
                break
            reduced.append(_monic([(g.key, g.lead, g.lc, 1), *records], basis[0]._wrap, packing))
        else:
            members, member_forms = zip(*reduced)
            _memo = (packing, members, member_forms)
            return members


def pseudo_divide(f: list[int], g: list[int]) -> tuple[list[int], list[int]]:
    """Univariate division of integer coefficient lists, lowest degree
    first, g's last coefficient nonzero: (q, r) with A * f = q * g + r
    for the positive scale A of the loop, deg r < deg g, and r free of
    leading zeros ([] when it is zero).

    q and r are A times ``divide``'s quotient and remainder of the same
    polynomials. The memo is neither read nor replaced.
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


def leading_monomials(polynomials: list[Polynomial], order: MonomialOrder) -> list[Monomial]:
    """The leading monomials of nonzero polynomials of one ring (else a
    ValueError or RingMismatchError), read off the forms the memo then
    holds, so a ``GroebnerBasis`` of the kernel's members converts none."""
    if any(g.context != polynomials[0].context for g in polynomials):
        raise RingMismatchError("ring mismatch")
    if not all(polynomials):
        raise ValueError("leading term of zero polynomial")
    packing, _, forms = next(_packings(polynomials, order, 0))
    return [packing.unpack(form.lead) for form in forms]


# (packing, divisors, their forms) of the last conversion; see the module
# docstring. Replaced whole, never mutated.
_memo: tuple = (None, (), ())


def _packings(
    divisors: list[Polynomial], order: MonomialOrder, degree: int
) -> Iterator[tuple[Packing, int, tuple[_Form, ...]]]:
    """Packings to divide in, each twice as wide as the last, with the
    largest total degree of the divisors and of degree, and the divisors'
    forms in each: the memo's where it holds them in that packing, the
    others converted. When any is converted, this list replaces the memo."""
    global _memo
    nvars = len(divisors[0].context)
    memo_packing, known, forms = _memo
    # The memo's polynomials are alive, so no other object has their ids.
    by_id = dict(zip(map(id, known), forms))
    recalled = [by_id.get(id(g)) for g in divisors]
    degree = max(
        degree,
        *(max(map(sum, g.terms)) if form is None else form.degree for g, form in zip(divisors, recalled)),
    )
    # Room for twice the largest input degree, and the guard bit.
    width = degree.bit_length() + 2
    if recalled.count(None) < len(divisors) and memo_packing is order.packing(nvars, memo_packing.width):
        # Wider fields divide as well, and keep the memo's forms; fields
        # that must grow double, so a growing basis seldom converts again.
        width = memo_packing.width if width <= memo_packing.width else max(width, 2 * memo_packing.width)
    while True:
        packing = order.packing(nvars, width)
        if packing is not memo_packing:
            recalled = [None] * len(divisors)
        forms = tuple(_form(g, packing) if form is None else form for g, form in zip(divisors, recalled))
        if None in recalled:
            _memo = (packing, tuple(divisors), forms)
        yield packing, degree, forms
        width *= 2


class _Form(NamedTuple):
    """A nonzero divisor g = (s / t) * G, G primitive with a positive
    leading coefficient, in one packing."""

    lead: int  # the packed leading monomial
    key: int  # its order key
    lc: int  # G's leading coefficient
    tail: list[tuple[int, int]]  # G's other terms as (order key, coefficient)
    s: int
    t: int
    degree: int  # g's total degree


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
    return _Form(packing.unkey(k_lead), k_lead, lc, tail, s, t, max(map(sum, g.terms)))


def _monic(
    records: list[tuple[int, int, int, int]], wrap: Callable[[dict], Polynomial], packing: Packing
) -> tuple[Polynomial, _Form]:
    """The monic polynomial whose terms the remainder records hold, the
    first record its lead, and its form."""
    top = records[-1][3]  # scales only grow, so every scale divides it
    coefficients = [c * (top // scale) for _, _, c, scale in records]
    content = gcd(*coefficients)
    if coefficients[0] < 0:
        content = -content
    if content != 1:
        coefficients = [c // content for c in coefficients]
    lc = coefficients[0]
    monomials = [packing.unpack(lm) for _, lm, _, _ in records]
    member = wrap(dict(zip(monomials, [Fraction(c, lc) for c in coefficients])))
    k_lead, lead = records[0][:2]
    tail = [(k, c) for (k, _, _, _), c in zip(records[1:], coefficients[1:])]
    return member, _Form(lead, k_lead, lc, tail, 1, lc, max(map(sum, monomials)))


def _reduce(
    p: dict[int, int], forms: Sequence[_Form], degree: int, packing: Packing, steps: list | None
) -> list[tuple[int, int, int, int]] | None:
    """Reduce p, a dict from order key to integer coefficient, by the
    forms in one packing, consuming p; or None if a product could
    overflow its fields. Every term of p fits the fields, and no term of
    a form has a total degree above degree.

    The remainder comes back as records (order key, packed monomial, c,
    A), largest first: the term c * monomial / A of p's remainder, A the
    scale when it moved. Each step is appended to steps, when given, as
    (form index, shift, b, A).
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


def _divide_packed(
    f: Polynomial, forms: tuple[_Form, ...], degree: int, packing: Packing
) -> DivisionResult | None:
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
