"""The real-root isolator as it was before integer dyadic points: the reference.

Every bisection point is a ``Fraction``, built and compared as one, and
the refinement width is a ``Fraction`` too. Slow, but it states the
bisection with nothing scaled, so ``univariate_real_roots`` must return
exactly its root list, and refuse a root past the float range as it does.
"""

import math
from fractions import Fraction

from groebnerkit.division import divide
from groebnerkit.order import LEX
from groebnerkit.ring import Polynomial


def reference_roots(p: Polynomial, tol: float) -> list[float]:
    active = {i for m in p.terms for i, e in enumerate(m) if e}
    if not active:
        return []  # nonzero constant
    var = active.pop()

    # The signed remainder sequence p, p', -rem, ... ends in gcd(p, p').
    chain = [p, _derivative(p, var)]
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
        if clusters and _float(root - clusters[-1][0]) <= tol:
            clusters[-1].append(root)
        else:
            clusters.append([root])
    roots = [_float((c[0] + c[-1]) / 2) for c in clusters]
    if math.inf in map(abs, roots):
        raise ValueError("a root is beyond the float range")
    return roots


def _float(x: Fraction) -> float:
    """float(x), or the infinity of x's sign when it is past the float range."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _derivative(p: Polynomial, var: int) -> Polynomial:
    """The partial derivative of p in the variable at position var."""
    terms = {m[:var] + (m[var] - 1,) + m[var + 1 :]: m[var] * c for m, c in p.terms.items() if m[var]}
    return Polynomial(p.context, terms)


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
