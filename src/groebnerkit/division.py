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
polynomial is always (n / d) * P / A; a term that moves to the
remainder is read at that scale, and the step's quotient term is
(n / d) * b / A / (s / t). The loop makes ``int`` products and one
``gcd`` per step, and strips no content from P, whose coefficients grow
with A; ``Fraction`` reduces only once per output coefficient.

Converting a divisor to its form costs as much as a few steps, and
callers divide by the same list again and again: completion by its
growing basis, membership tests by one basis. So the forms of the last
division are kept in one module-level memo, matched by object identity
in list order. A call whose list repeats the memo's list, or extends
it at its end, converts only the members past the common prefix, and
divides in the memo's fields when they are wider than it needs.
Polynomials are values, never mutated, so the same object always has the
same form; the memo holds its polynomials, so their ids are not reused
while it lives. An entry is replaced whole and never mutated, so a
thread that reads it sees one consistent entry. The memo changes no
result, only how much is converted.

Quotients are not built during the division. Each step is recorded as
(divisor index, shift, b, A), and ``DivisionResult.quotients`` turns
those records into polynomials when it is first read; callers that want
only the remainder never pay for them.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from typing import Callable, Iterable, NamedTuple

from .order import MonomialOrder, Packing
from .ring import Polynomial, RingMismatchError


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

    nvars = len(f.context)
    known, packing, forms = _recall(divisors)
    degree = max(
        [max(map(sum, g.terms), default=0) for g in (f, *divisors[known:])]
        + [form.degree for form in forms[:known]]
    )
    # Room for twice the largest input degree, and the guard bit.
    width = degree.bit_length() + 2
    if known and packing is order.packing(nvars, packing.width):
        # Wider fields divide as well, and keep the memo's forms.
        width = max(width, packing.width)
    while True:
        result = _divide_packed(f, divisors, degree, order.packing(nvars, width))
        if result is not None:
            return result
        width *= 2


# (packing, divisors, their forms) of the last division; see the module
# docstring. Replaced whole, never mutated.
_memo: tuple = (None, (), ())


def _recall(divisors: list[Polynomial]) -> tuple[int, Packing | None, tuple]:
    """How many leading divisors the memo holds, matched by identity,
    with the memo's packing and forms."""
    packing, known, forms = _memo
    n, limit = 0, min(len(known), len(divisors))
    while n < limit and known[n] is divisors[n]:
        n += 1
    return n, packing, forms


def _forms(divisors: list[Polynomial], packing: Packing) -> tuple[_Form, ...]:
    """The divisors' forms in packing, converting only those the memo
    does not hold, and the memo replaced by this list."""
    global _memo
    known, memo_packing, forms = _recall(divisors)
    if memo_packing is not packing:
        known = 0
    elif known == len(divisors) == len(forms):
        return forms
    forms = forms[:known] + tuple(_form(g, packing) for g in divisors[known:])
    _memo = (packing, tuple(divisors), forms)
    return forms


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


def _divide_packed(
    f: Polynomial, divisors: list[Polynomial], degree: int, packing: Packing
) -> DivisionResult | None:
    """The division in one packing, or None if a product could overflow
    its fields. No input term has a total degree above degree."""
    unkey, guards = packing.unkey, packing.guards
    # Every field of reach holds degree, so no field of a divisor term
    # times a shift exceeds that field of reach + shift.
    reach = degree * (guards >> (packing.width - 1))
    forms = _forms(divisors, packing)
    leads = [form.lead for form in forms]

    p, n, d = _integral(f, packing)
    heap = [-k for k in p]
    heapify(heap)
    steps: list[tuple[int, int, int, int]] = []  # (divisor, shift, b, A)
    remainder: dict[int, Fraction] = {}
    scale = 1  # A: the running polynomial is (n / d) * p / A
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
            remainder[lm_p] = Fraction(n * c_p, d * scale)

    unpack, wrap = packing.unpack, f._wrap

    def quotients() -> tuple[Polynomial, ...]:
        terms: list[dict] = [{} for _ in forms]
        for i, shift, b, step_scale in steps:
            form = forms[i]
            terms[i][unpack(shift)] = Fraction(n * b * form.t, d * step_scale * form.s)
        return tuple(wrap(q) for q in terms)

    return DivisionResult(quotients, wrap({unpack(m): c for m, c in remainder.items()}))
