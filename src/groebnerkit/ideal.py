"""Consumers of Groebner bases: membership, elimination, the staircase
of a two-variable leading-term ideal, and the exact real roots of a
univariate polynomial as dyadic points: up to degree 2 in closed form,
by integer square roots, and above it by a Sturm chain of primitive
integer lists (Collins, "Subresultants and reduced polynomial remainder
sequences", 1967) read at those points. Both return the same points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import or_

from .groebner import GroebnerBasis, normal_form
from .order import MonomialOrder
from .ring import Polynomial


def is_member(f: Polynomial, basis: GroebnerBasis) -> bool:
    """Whether f lies in the ideal the basis generates.

    Sound and complete because the basis is a Groebner basis: membership
    is exactly a zero normal form. Repeating a division of the same
    polynomial by the same list returns the first result (``division``).
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
    # Packed under lex, the first variables take the top fields.
    return [g for g in basis.generators if max(g._numerators) >> (g._width * keep_count) == 0]


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
    packing, forms = basis._kernel[:2]
    if packing.nvars != 2:
        raise ValueError("staircase supports 2 variables")
    points = {tuple(packing.unpack(form.lead)) for form in forms}
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

    Exact over Q up to the final float. Each root is found as a dyadic
    point, an integer numerator over 2^s, so no Fraction is built; every
    point is the one that bisection to cells narrower than tol returns:
    the root itself where it lands on the grid of those cells, else the
    centre of the cell that holds it. Roots closer than tol merge,
    reporting the midpoint. A root past the float range is a ValueError,
    and so is a tol whose float is not positive and finite: it is read as
    that float.

    Degree 1 and 2 take the closed form (``_quadratic``), which reads the
    points off exact integer square roots, unless tol is so wide that
    bisection would split nothing. Higher degrees take one
    signed remainder sequence p, p', -rem(p, p'), ... ending in
    gcd(p, p'); divided through by that last member it is a Sturm chain
    of the square-free part p/gcd(p, p'), which keeps every root once
    whatever its multiplicity. The chain is integer coefficient lists,
    each a positive multiple of the member over Q, so every sign is the
    same; each remainder and each quotient by the gcd comes from the list
    pseudo-remainder ``_pseudo_divide`` and is made primitive. Sturm
    counts bisect (-2^e, 2^e], a power of two past the Cauchy bound,
    until each interval holds one root, and quadratic interval refinement
    narrows it (``_refine``), returning the very point that halving
    would.
    """
    try:
        tol = float(tol)
    except OverflowError:
        tol = math.inf
    if not 0 < tol < math.inf:
        raise ValueError("tol must be positive and finite as a float")
    if not p._numerators:
        raise ValueError("identically zero")
    # Each variable has its own field of p._width bits in the packed
    # monomials. Their OR has its highest bit in the field of the one
    # variable in use, and no bit below that field.
    used, width = reduce(or_, p._numerators), p._width
    if not used:
        return []  # nonzero constant
    shift = (used.bit_length() - 1) // width * width
    if used & ((1 << shift) - 1):
        raise ValueError("not univariate")
    f = _integral(p, shift)

    # The Cauchy bound 1 + max |c_i / c_d| over i < d, rounded up, is
    # 1 + ceiling, read off p's integer list with the same ratios.
    ceiling = -(-max(map(abs, f[:-1]), default=0) // abs(f[-1]))
    s = -ceiling.bit_length()
    # An interval (a, b] at level s has b - a = 2, so it is 2^(1 - s) wide;
    # it is split while that is at least tol, that is below level stop.
    # Halving doubles both ends and puts the midpoint a + b at level s + 1.
    # With tol = m * 2^e, 1/2 <= m < 1, 2^(1 - s) < tol from s = 2 - e on,
    # or from s = 3 - e when tol is the power of two 2^(e - 1).
    mantissa, exponent = math.frexp(tol)
    stop = 2 - exponent + (mantissa == 0.5)
    # Below level stop the cells are those of the grid of level stop - 1;
    # a start interval that is never split is left to the bisection.
    found = _quadratic(f, stop - 1) if len(f) <= 3 and s < stop else _bisected(f, s, stop)

    # Every point as a numerator over the one power of two 2^top.
    top = max([t for _, t in found], default=0)
    clusters: list[list[int]] = []
    for num in sorted([num << (top - t) for num, t in found]):
        if clusters and _float(num - clusters[-1][0], top) <= tol:
            clusters[-1][1] = num
        else:
            clusters.append([num, num])
    roots = [_float(first + last, top + 1) for first, last in clusters]
    if math.inf in map(abs, roots):
        raise ValueError("a root is beyond the float range")
    return roots


def _quadratic(f: list[int], level: int) -> list[tuple[int, int]]:
    """The points (num, level) of f's real roots, f of degree 1 or 2, as
    bisection to cells of the grid of the given level returns them: a
    root on that grid itself, else the centre of its cell (k, k + 1] /
    2^level, and one centre for two roots in one cell.

    Each root is (x +- sqrt(d)) / z with z > 0. Scaled by 2^level it has
    the floor (x + isqrt(d)) // z, or (x - ceil(sqrt(d))) // z, exactly,
    and lies on the grid when d is a square and that division is exact.
    """
    if f[-1] < 0:
        f = [-c for c in f]
    if len(f) == 2:
        x, d, z = -f[0], 0, f[1]
    else:
        c, b, a = f
        x, d, z = -b, b * b - 4 * a * c, 2 * a
    if d < 0:
        return []
    if level >= 0:
        x, d = x << level, d << 2 * level
    else:
        z <<= -level
    root = math.isqrt(d)
    square = root * root == d
    found: dict[int, tuple[int, int]] = {}  # cell k -> point
    # The smaller root comes second. In the larger one's cell it lies off
    # the grid, and its point, the cell's centre, is the two roots' point.
    for num in (x + root, x - root - (not square)):
        k, rest = divmod(num, z)
        if square and not rest:
            found[k - 1] = (k, level)
        else:
            found[k] = (2 * k + 1, level + 1)
    return list(found.values())


def _bisected(f: list[int], s: int, stop: int) -> list[tuple[int, int]]:
    """The points (num, level) of f's real roots by a Sturm chain,
    bisecting (-1, 1] at level s and refining below level stop."""
    # The signed remainder sequence f, f', -rem, ... ends in gcd(f, f'),
    # each member a positive multiple of the one over Q.
    chain = [f, [i * c for i, c in enumerate(f)][1:]]
    while rem := _pseudo_divide(chain[-2], chain[-1])[1]:
        chain.append(_primitive([-c for c in rem]))
    gcd = chain[-1]
    # A constant gcd (f square-free) would only scale every member.
    if len(gcd) > 1:
        chain = [_primitive(_pseudo_divide(h, gcd)[0]) for h in chain]

    found: list[tuple[int, int]] = []
    stack = [(-1, _variations_at(chain, -1, s), 1, _variations_at(chain, 1, s), s)]
    while stack:
        a, va, b, vb, s = stack.pop()
        # An interval is split while it holds more than one root, and the
        # start (-1, 1], the one interval of odd a, while it holds any: it
        # is no cell of the grid one level up, and every other is.
        if va - vb > 1 - a % 2 and s < stop:
            mid = a + b
            vm = _variations_at(chain, mid, s + 1)
            stack += [(2 * a, va, mid, vm, s + 1), (mid, vm, 2 * b, vb, s + 1)]
        elif va - vb == 1:
            found.append(_refine(chain[0], a, b, s, stop))
        elif va > vb:
            found.append((a + b, s + 1))  # several roots closer than tol
    return found


# Integer coefficient lists, lowest degree first, read at dyadic points
# num / 2^s: an integer numerator num and a level s, which may be negative.


def _integral(f: Polynomial, shift: int) -> list[int]:
    """The coefficients of f, a polynomial in the one variable whose packed
    field starts at bit shift, times its positive denominator: its
    numerators."""
    coeffs = [0] * (1 + (max(f._numerators) >> shift))
    for m, c in f._numerators.items():
        coeffs[m >> shift] = c
    return coeffs


def _float(num: int, s: int) -> float:
    """num / 2^s correctly rounded, as float(Fraction) rounds it, or the
    infinity of num's sign when it is past the float range."""
    try:
        return num / (1 << s) if s >= 0 else float(num << -s)
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def _primitive(f: list[int]) -> list[int]:
    """f divided by the positive gcd of its coefficients."""
    content = math.gcd(*f)
    return f if content == 1 else [c // content for c in f]


def _pseudo_divide(f: list[int], g: list[int]) -> tuple[list[int], list[int]]:
    """Division of f by g, g's last coefficient l nonzero: (q, r) with
    A * f = q * g + r for the positive scale A of the loop, deg r < deg g,
    and r free of leading zeros ([] when it is zero).

    ``division``'s fraction-free step, on the list: its top coefficient c
    comes off, the rest is multiplied by a = |l| / gcd(c, l), and b = a *
    c / l times g, shifted, is taken away, which cancels c. So q and r are
    A times ``divide``'s quotient and remainder of the same polynomials,
    and q takes the sign of l.
    """
    d, lead, tail = len(g) - 1, g[-1], g[:-1]
    r, q = f[:], [0] * max(len(f) - d, 0)
    while len(r) > d:
        if c := r.pop():
            a = abs(lead) // math.gcd(c, lead)
            b = a * c // lead
            if a != 1:
                r, q = [a * x for x in r], [a * x for x in q]
            q[len(r) - d] = b
            for k, x in enumerate(tail, len(r) - d):
                r[k] -= b * x
    while q and not q[-1]:
        q.pop()  # a leading zero of f's
    while r and not r[-1]:
        r.pop()
    return q, r


def _value_at(f: list[int], num: int, s: int) -> int:
    """f(num / 2^s) times 2^(d*max(s, 0)), d = len(f) - 1, by integer
    Horner: each coefficient is shifted by s more bits than the one above
    it. A point at s < 0 is the integer num * 2^-s, read at s = 0."""
    if s < 0:
        num, s = num << -s, 0
    acc = shift = 0
    for c in reversed(f):
        acc = acc * num + (c << shift)
        shift += s
    return acc


def _variations_at(chain: list[list[int]], num: int, s: int) -> int:
    """Sign changes along the Sturm chain at num / 2^s; zeros are skipped.
    last is the sign of the last nonzero member, True for positive, and
    None before the first: a negative value after True counts, as does a
    positive one after False."""
    changes, last = 0, None
    for f in chain:
        if v := _value_at(f, num, s):
            changes, last = changes + (last == (v < 0)), v > 0
    return changes


def _refine(f: list[int], a: int, b: int, s: int, stop: int) -> tuple[int, int]:
    """The one root of square-free f in (a, b] at level s, as a point
    (num, level), the point that halving to level stop returns: b where
    f vanishes; at s >= stop the centre of (a, b]; else the root itself
    if it lies on the grid of level stop - 1, and otherwise the centre of
    the cell of that grid that holds it. f may vanish at a.

    Quadratic interval refinement (Abbott, "Quadratic Interval Refinement
    for Real Roots", 2006) finds that cell. A cell of level t is cut into
    2^n parts; the secant through its ends picks the nearest part point,
    and the sign there and at most one next to it confirm a part as the
    next cell, of level t + n, and n doubles. Where they do not, the cell
    is halved and n halves. n starts at 1, and is capped so that no cell
    is finer than level stop - 1, so every point read lies on that grid.

    At s < stop, a is even (``_bisected`` splits the odd start
    interval), so (a, b] is the cell (a / 2, a / 2 + 1] of level s - 1,
    and refinement starts from that cell with no step of its own.
    """
    end = _value_at(f, b, s)
    if end == 0:
        return b, s
    if s >= stop:
        return a + b, s + 1
    up = end > 0  # f's sign between the root and b; before the root, the other
    d, top = len(f) - 1, stop - 1
    lo, t = a // 2, s - 1
    vlo, vhi = _value_at(f, lo, t), end >> d if s > 0 else end
    # The cell is (lo, lo + 1] at level t; vlo and vhi are the magnitudes
    # of f's values at its ends, scaled as _value_at scales them there.
    vlo, vhi = abs(vlo), abs(vhi)
    n = 1
    while t < top:
        # Where f vanishes at the left end, the secant says nothing: halve.
        m = (n if n < top - t else top - t) if vlo else 1
        parts, base = 1 << m, lo << m
        shift = d * (m if t >= 0 else t + m if t + m > 0 else 0)
        vlo, vhi, t = vlo << shift, vhi << shift, t + m
        # The secant through the ends meets the axis nearest part point k.
        total = vlo + vhi
        k = ((vlo << (m + 1)) + total) // (2 * total)
        k = 1 if k < 1 else parts - 1 if k >= parts else k
        v = _value_at(f, base + k, t)
        if v == 0:
            return base + k, t
        hit = True  # the root is in the part (left, right]
        if (v > 0) == up:  # the root lies before k
            left, vl, right, vr = k - 1, vlo, k, abs(v)
            if left:
                v = _value_at(f, base + left, t)
                if v == 0:
                    return base + left, t
                hit, vl = (v > 0) != up, abs(v)
        else:
            left, vl, right, vr = k, abs(v), k + 1, vhi
            if right < parts:
                v = _value_at(f, base + right, t)
                if v == 0:
                    return base + right, t
                hit, vr = (v > 0) == up, abs(v)
        if hit:
            lo, vlo, vhi, n = base + left, vl, vr, 2 * n
            continue
        # The root is not in that part: halve the cell instead.
        n = n // 2 or 1
        t -= m - 1
        shift = d * (m - 1 if t > 0 else t + m - 1 if t + m > 1 else 0)
        vlo, vhi = vlo >> shift, vhi >> shift
        v = _value_at(f, 2 * lo + 1, t)
        if v == 0:
            return 2 * lo + 1, t
        if (v > 0) == up:
            lo, vhi = 2 * lo, abs(v)
        else:
            lo, vlo = 2 * lo + 1, abs(v)
    return 2 * lo + 1, stop
