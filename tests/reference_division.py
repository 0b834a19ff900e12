"""The division kernel as it was before packed monomials: the reference.

A dict of ``Monomial`` to ``Fraction`` holds the running polynomial, and
its leading monomial is found by a fresh ``max`` under the order's key
on every step. Slow, but it states the algorithm with nothing packed,
so ``divide`` must return exactly its quotients and remainder.
"""

from fractions import Fraction

from groebnerkit.division import DivisionResult
from groebnerkit.order import MonomialOrder, leading_term
from groebnerkit.ring import Monomial, Polynomial


def reference_divide(
    f: Polynomial, divisors: list[Polynomial], order: MonomialOrder
) -> DivisionResult:
    key = order.key_function()
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
        assert previous_lm is None or key(lm_p) < key(previous_lm)
        previous_lm = lm_p
        c_p = p[lm_p]
        for i, (lm_g, lc_g, terms_g) in enumerate(leads):
            if lm_g.divides(lm_p):
                shift = lm_p / lm_g
                factor = c_p / lc_g
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
