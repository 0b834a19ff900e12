"""Division of a polynomial by an ordered list of divisors.

Long division generalized to several variables: repeatedly cancel the
leading term of the running polynomial against the first divisor whose
leading term divides it; when none does, the leading term moves to the
remainder. The divisor list is ordered and the first-match rule is kept
deliberately, so swapping divisors can change the outcome — a property
of the algorithm itself, not an implementation accident.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .order import MonomialOrder, leading_term
from .ring import Monomial, Polynomial, RingMismatchError


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

    key = order.key_function()
    # (leading monomial, leading coefficient, all terms) per divisor
    leads = []
    for g in divisors:
        lt = leading_term(g, order)
        leads.append((lt.monomial, lt.coefficient, list(g.terms.items())))

    p = dict(f.terms)
    quotients: list[dict[Monomial, Fraction]] = [{} for _ in divisors]
    remainder: dict[Monomial, Fraction] = {}
    previous_lm = None

    while p:
        lm_p = max(p, key=key)
        # The leading monomial must drop every pass or the loop would not halt.
        assert previous_lm is None or key(lm_p) < key(previous_lm)
        previous_lm = lm_p
        c_p = p[lm_p]
        for i, (lm_g, lc_g, terms_g) in enumerate(leads):
            if lm_g.divides(lm_p):
                shift = lm_p / lm_g
                factor = c_p / lc_g
                # lm_p falls every pass (asserted above), so no divisor
                # sees the same shift twice.
                quotients[i][shift] = factor
                for m_g, c_g in terms_g:
                    m = m_g * shift
                    acc = p.get(m, Fraction(0)) - factor * c_g
                    if acc:
                        p[m] = acc
                    else:
                        p.pop(m, None)
                break
        else:
            remainder[lm_p] = c_p
            del p[lm_p]

    wrap = f._wrap
    return DivisionResult(
        quotients=tuple(wrap(q) for q in quotients),
        remainder=wrap(remainder),
    )
