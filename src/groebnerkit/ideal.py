"""Consumers of Groebner bases.

Ideal membership via normal forms, elimination ideals read off a lex
basis, the two-variable staircase picture of a leading-term monomial
ideal, and an exact real-root isolator for the univariate polynomials
that elimination produces: one signed remainder sequence of p and p',
built with the division kernel, ends in gcd(p, p'), and divided through
by it gives the Sturm chain of the square-free part, which dyadic
bisection over Q reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .division import divide
from .groebner import GroebnerBasis, normal_form
from .order import LEX, MonomialOrder, leading_monomial
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

    Exact over Q up to the final float. One signed remainder sequence
    p, p', -rem(p, p'), ... ends in gcd(p, p'); divided through by that
    last member it is a Sturm chain of the square-free part p/gcd(p, p'),
    which keeps every root once whatever its multiplicity. Sturm counts
    bisect (-2^k, 2^k], a power of two past the Cauchy bound, until each
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

    # The signed remainder sequence p, p', -rem, ... ends in gcd(p, p').
    chain = [p, p._derivative(var)]
    while True:
        rem = divide(chain[-2], [chain[-1]], LEX).remainder
        if rem.is_zero():
            break
        chain.append(-rem)
    gcd = chain[-1]
    # A constant gcd (p square-free) would only scale every member.
    if any(m[var] for m in gcd.terms):
        chain = [divide(f, [gcd], LEX).quotients[0] for f in chain]
    chain = [_integral(f, var) for f in chain]

    # Every exponent but var's is zero, so tuple order is degree order.
    top = max(p.terms)
    lead = p.terms[top]
    bound = 1 + max((abs(c / lead) for m, c in p.terms.items() if m != top), default=0)
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


# Integer coefficient lists, lowest degree first, as _sign evaluates them.


def _integral(f: Polynomial, var: int) -> list[int]:
    """f's coefficients in var scaled by the positive lcm of their
    denominators: integers with the same signs."""
    scale = math.lcm(*(c.denominator for c in f.terms.values()))
    coeffs = [0] * (1 + max(m[var] for m in f.terms))
    for m, c in f.terms.items():
        coeffs[m[var]] = int(c * scale)
    return coeffs


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
