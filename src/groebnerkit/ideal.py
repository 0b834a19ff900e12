"""Consumers of Groebner bases.

Ideal membership via normal forms, elimination ideals read off a lex
basis, the two-variable staircase picture of a leading-term monomial
ideal, and an exact real-root isolator (square-free part, Sturm chain,
dyadic bisection over Q) for the univariate polynomials that
elimination produces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .groebner import GroebnerBasis, normal_form
from .order import MonomialOrder, leading_monomial
from .ring import Polynomial


def is_member(f: Polynomial, basis: GroebnerBasis) -> bool:
    """Whether f lies in the ideal the basis generates.

    Sound and complete because the basis is a Groebner basis: membership
    is exactly a zero normal form.
    """
    return normal_form(f, list(basis.generators), basis.order).is_zero()


def eliminate(basis: GroebnerBasis, keep_count: int) -> list[Polynomial]:
    """Generators involving only the last keep_count variables.

    For a lex basis this subset is itself a Groebner basis of the
    elimination ideal, which is why lex is required here.
    """
    if basis.order is not MonomialOrder.LEX:
        raise ValueError("elimination requires lex")
    nvars = len(basis.context)
    if not 1 <= keep_count <= nvars:
        raise ValueError(f"keep_count must be between 1 and {nvars}")
    drop = nvars - keep_count
    kept = []
    for g in basis.generators:
        if all(not any(m[:drop]) for m in g.terms):
            kept.append(g)
    return kept


@dataclass(frozen=True)
class StaircaseDiagram:
    """Minimal generators of a 2-variable monomial ideal, plus extents.

    A lattice point (u, v) lies inside the ideal exactly when some
    generator (a, b) has a <= u and b <= v. Generators are pairwise
    incomparable under componentwise <=.
    """

    minimal_generators: tuple[tuple[int, int], ...]
    width: int
    height: int

    def contains(self, u: int, v: int) -> bool:
        return any(a <= u and b <= v for a, b in self.minimal_generators)


def staircase(basis: GroebnerBasis) -> StaircaseDiagram:
    """Staircase of the leading-term ideal of a 2-variable basis."""
    if len(basis.context) != 2:
        raise ValueError("staircase supports 2 variables")
    points = {tuple(leading_monomial(g, basis.order)) for g in basis.generators}
    minimal = [
        p
        for p in points
        if not any(q != p and q[0] <= p[0] and q[1] <= p[1] for q in points)
    ]
    minimal.sort()
    width = max(a for a, _ in minimal) + 2
    height = max(b for _, b in minimal) + 2
    return StaircaseDiagram(tuple(minimal), width, height)


def univariate_real_roots(p: Polynomial, tol: float) -> list[float]:
    """All distinct real roots of a univariate polynomial, ascending.

    Exact over Q up to the final float: the square-free part p/gcd(p, p')
    keeps every root once whatever its multiplicity, Sturm counts bisect
    (-2^k, 2^k], a power of two past the Cauchy bound, until each
    interval holds one root, and sign bisection refines it to width tol.
    Every bisection point is dyadic, and a root landing on one is
    returned exactly. Roots closer than tol merge, reporting the midpoint.
    """
    if not 0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    if p.is_zero():
        raise ValueError("identically zero")
    active = {i for m in p.terms for i, e in enumerate(m) if e}
    if len(active) > 1:
        raise ValueError("not univariate")
    if not active:
        return []  # nonzero constant
    var = active.pop()

    degree = max(m[var] for m in p.terms)
    coeffs = [Fraction(0)] * (degree + 1)
    for m, c in p.terms.items():
        coeffs[m[var]] = c

    square_free = _divmod(coeffs, _gcd(coeffs, _derivative(coeffs)))[0]
    chain = [square_free, _derivative(square_free)]
    while len(chain[-1]) > 1:
        chain.append([-c for c in _divmod(chain[-2], chain[-1])[1]])
    chain = [_integral(s) for s in chain]

    lead = coeffs[-1]
    bound = 1 + max(abs(c / lead) for c in coeffs[:-1])
    half = Fraction(2 ** (math.ceil(bound) - 1).bit_length())
    width = Fraction(tol)
    found: list[Fraction] = []
    stack = [(-half, _variations(chain, -half), half, _variations(chain, half))]
    while stack:
        a, va, b, vb = stack.pop()
        if va - vb > 1 and b - a >= width:
            mid = (a + b) / 2
            vm = _variations(chain, mid)
            stack += [(a, va, mid, vm), (mid, vm, b, vb)]
        elif va - vb == 1:
            found.append(_refine(chain[0], a, b, width))
        elif va > vb:
            found.append((a + b) / 2)  # several roots closer than tol

    clusters: list[list[Fraction]] = []
    for root in sorted(found):
        if clusters and float(root - clusters[-1][0]) <= tol:
            clusters[-1].append(root)
        else:
            clusters.append([root])
    return [float((c[0] + c[-1]) / 2) for c in clusters]


# Coefficient lists, lowest degree first, no trailing zero; [] is zero.


def _derivative(f: list) -> list:
    return [i * c for i, c in enumerate(f)][1:]


def _divmod(f: list, g: list) -> tuple[list, list]:
    """Quotient and remainder of f by a nonzero g over Q."""
    r = list(f)
    q = [Fraction(0)] * max(len(f) - len(g) + 1, 0)
    while len(r) >= len(g):
        shift = len(r) - len(g)
        factor = q[shift] = r[-1] / g[-1]
        for i, c in enumerate(g):
            r[shift + i] -= factor * c
        r.pop()  # the leading term cancels exactly
        while r and r[-1] == 0:
            r.pop()
    return q, r


def _gcd(f: list, g: list) -> list:
    while g:
        f, g = g, _divmod(f, g)[1]
    return f


def _integral(f: list) -> list[int]:
    """f scaled by the positive lcm of its denominators: integers, same signs."""
    scale = math.lcm(*(c.denominator for c in f))
    return [int(c * scale) for c in f]


def _sign(f: list[int], x: Fraction) -> int:
    """Sign of f(x), from den^deg * f(num/den) in integers."""
    acc, power = 0, 1
    for c in reversed(f):
        acc = acc * x.numerator + c * power
        power *= x.denominator
    return (acc > 0) - (acc < 0)


def _variations(chain: list[list[int]], x: Fraction) -> int:
    """Sign changes along the Sturm chain at x; zeros are skipped."""
    signs = [s for s in (_sign(f, x) for f in chain) if s]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _refine(f: list[int], a: Fraction, b: Fraction, width: Fraction) -> Fraction:
    """The one root of square-free f in (a, b]; f may vanish at a."""
    end = _sign(f, b)
    if end == 0:
        return b
    while b - a >= width:
        mid = (a + b) / 2
        sign = _sign(f, mid)
        if sign == 0:
            return mid
        if sign == end:
            b = mid
        else:
            a = mid
    return (a + b) / 2
