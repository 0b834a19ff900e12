"""Consumers of Groebner bases.

Ideal membership via normal forms, elimination ideals read off a lex
basis, the two-variable staircase picture of a leading-term monomial
ideal, and an exact real-root isolator for the univariate polynomials
that elimination produces: one signed remainder sequence of p and p'
ends in gcd(p, p'), and divided through by it gives the Sturm chain of
the square-free part. The chain is built on integer coefficient lists
with the division kernel's ``pseudo_divide``, each member primitive and
a positive multiple of the member over Q (the primitive remainder
sequence of Collins, "Subresultants and reduced polynomial remainder
sequences", 1967), so no Fraction polynomial is built. Bisection reads
it at dyadic points, each an integer numerator over a power of two, so
the signs are integer Horner sums and only a returned root is a
Fraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .division import pseudo_divide
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

    Exact over Q up to the final float. One signed remainder sequence
    p, p', -rem(p, p'), ... ends in gcd(p, p'); divided through by that
    last member it is a Sturm chain of the square-free part p/gcd(p, p'),
    which keeps every root once whatever its multiplicity. The chain is
    integer coefficient lists, each a positive multiple of the member
    over Q, so every sign is the same; each remainder and each quotient
    by the gcd comes from ``division.pseudo_divide`` and is made
    primitive. The Cauchy bound is read off p's integer list. Sturm counts
    bisect (-2^e, 2^e], a power of two past the Cauchy bound, until each
    interval holds one root, and sign bisection refines it to width tol.
    A point is an integer numerator over 2^s, with s = -e at the start
    and one more at each halving, so no Fraction is built per point. A
    root landing on one is returned exactly. Roots closer than tol merge,
    reporting the midpoint. A root past the float range is a ValueError.
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

    # The signed remainder sequence p, p', -rem, ... ends in gcd(p, p'),
    # each member a positive multiple of the one over Q.
    f = _integral(p, var)
    chain = [f, [i * c for i, c in enumerate(f)][1:]]
    while True:
        _, rem = pseudo_divide(chain[-2], chain[-1])
        if not rem:
            break
        chain.append(_primitive([-c for c in rem]))
    gcd = chain[-1]
    # A constant gcd (p square-free) would only scale every member.
    if len(gcd) > 1:
        chain = [_primitive(pseudo_divide(h, gcd)[0]) for h in chain]

    # The Cauchy bound 1 + max |c_i / c_d| over i < d, rounded up, is
    # 1 + ceiling, read off p's integer list with the same ratios.
    ceiling = -(-max(map(abs, f[:-1]), default=0) // abs(f[-1]))
    s = -ceiling.bit_length()
    # An interval (a, b] at level s has b - a = 2, so it is 2^(1 - s) wide;
    # it is split while that is at least tol, that is below level stop.
    # Halving doubles both ends and puts the midpoint a + b at level s + 1.
    width = Fraction(tol)
    # At this first guess the intervals are still at least tol wide.
    stop = width.denominator.bit_length() - width.numerator.bit_length()
    while Fraction(2) ** (1 - stop) >= width:
        stop += 1
    found: list[Fraction] = []
    stack = [(-1, _variations_at(chain, -1, s), 1, _variations_at(chain, 1, s), s)]
    while stack:
        a, va, b, vb, s = stack.pop()
        if va - vb > 1 and s < stop:
            mid = a + b
            vm = _variations_at(chain, mid, s + 1)
            stack += [(2 * a, va, mid, vm, s + 1), (mid, vm, 2 * b, vb, s + 1)]
        elif va - vb == 1:
            found.append(_refine(chain[0], a, b, s, stop))
        elif va > vb:
            found.append(_dyadic(a + b, s + 1))  # several roots closer than tol

    clusters: list[list[Fraction]] = []
    for root in sorted(found):
        if clusters and _float(root - clusters[-1][0]) <= tol:
            clusters[-1].append(root)
        else:
            clusters.append([root])
    roots = [_float((c[0] + c[-1]) / 2) for c in clusters]
    if math.inf in map(abs, roots):
        raise ValueError("a root is beyond the float range")
    return roots


# Integer coefficient lists, lowest degree first, read at dyadic points
# num / 2^s: an integer numerator num and a level s, which may be negative.


def _integral(f: Polynomial, var: int) -> list[int]:
    """f's coefficients in var scaled by the positive lcm of their
    denominators: integers with the same signs."""
    scale = math.lcm(*[c.denominator for c in f.terms.values()])
    coeffs = [0] * (1 + max(m[var] for m in f.terms))
    for m, c in f.terms.items():
        coeffs[m[var]] = c.numerator * (scale // c.denominator)
    return coeffs


def _float(x: Fraction) -> float:
    """float(x), or the infinity of x's sign when x is past the float range."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _primitive(f: list[int]) -> list[int]:
    """f divided by the positive gcd of its coefficients."""
    content = math.gcd(*f)
    return f if content == 1 else [c // content for c in f]


def _dyadic(num: int, s: int) -> Fraction:
    """The point num / 2^s as a Fraction."""
    return Fraction(num, 1 << s) if s > 0 else Fraction(num << -s)


def _sign_at(f: list[int], num: int, s: int) -> int:
    """Sign of f(num / 2^s) by integer Horner: the sum is 2^(s*deg)
    f(num / 2^s), each coefficient shifted by s more bits than the one
    above it. A point at s < 0 is the integer num * 2^-s, read at s = 0."""
    if s < 0:
        num, s = num << -s, 0
    acc = shift = 0
    for c in reversed(f):
        acc = acc * num + (c << shift)
        shift += s
    return (acc > 0) - (acc < 0)


def _variations_at(chain: list[list[int]], num: int, s: int) -> int:
    """Sign changes along the Sturm chain at num / 2^s; zeros are skipped."""
    signs = [t for t in (_sign_at(f, num, s) for f in chain) if t]
    return sum(t != u for t, u in zip(signs, signs[1:]))


def _refine(f: list[int], a: int, b: int, s: int, stop: int) -> Fraction:
    """The one root of square-free f in (a, b] at level s, halved until
    level stop; f may vanish at a."""
    end = _sign_at(f, b, s)
    if end == 0:
        return _dyadic(b, s)
    while s < stop:
        mid, s = a + b, s + 1
        sign = _sign_at(f, mid, s)
        if sign == 0:
            return _dyadic(mid, s)
        if sign == end:
            a, b = 2 * a, mid
        else:
            a, b = mid, 2 * b
    return _dyadic(a + b, s + 1)
