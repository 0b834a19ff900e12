"""Reference algebra the benchmark checks the program against.

Nothing here imports groebnerkit. Polynomials are plain dicts from
exponent tuples to Fraction coefficients, monomial orders are sort keys
written from their textbook definitions, and every check returns a list
of error strings (empty when the answer is right), so a caller can count
a failed operation without an exception unwinding its loop.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

Poly = dict  # exponent tuple -> nonzero Fraction


def lex_key(m):
    return tuple(m)


def grevlex_key(m):
    return (sum(m), tuple(-e for e in reversed(m)))


ORDER_KEYS = {"lex": lex_key, "grevlex": grevlex_key}


# ---- arithmetic --------------------------------------------------------


def p_add(p: Poly, q: Poly, scale=1) -> Poly:
    out = dict(p)
    for m, c in q.items():
        v = out.get(m, 0) + scale * c
        if v:
            out[m] = v
        else:
            out.pop(m, None)
    return out


def p_mul(p: Poly, q: Poly) -> Poly:
    out: Poly = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            v = out.get(m, 0) + c1 * c2
            if v:
                out[m] = v
            else:
                out.pop(m, None)
    return out


def p_term_mul(p: Poly, c, shift) -> Poly:
    return {tuple(a + b for a, b in zip(m, shift)): v * c for m, v in p.items()}


def p_eval(p: Poly, point) -> Fraction:
    total = Fraction(0)
    for m, c in p.items():
        t = Fraction(c)
        for x, e in zip(point, m):
            if e:
                t *= x**e
        total += t
    return total


def lead(p: Poly, key):
    m = max(p, key=key)
    return m, p[m]


def divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def reduce_full(f: Poly, basis: list, key) -> Poly:
    """Full remainder of f modulo basis: no remainder term is divisible by
    any basis leading monomial."""
    leads = [lead(g, key) + (g,) for g in basis]
    f = dict(f)
    rem: Poly = {}
    while f:
        m, c = lead(f, key)
        for lm, lc, g in leads:
            if divides(lm, m):
                shift = tuple(a - b for a, b in zip(m, lm))
                f = p_add(f, p_term_mul(g, c / lc, shift), -1)
                break
        else:
            rem[m] = c
            del f[m]
    return rem


def s_poly(f: Poly, g: Poly, key) -> Poly:
    (mf, cf), (mg, cg) = lead(f, key), lead(g, key)
    lcm = tuple(max(a, b) for a, b in zip(mf, mg))
    left = p_term_mul(f, 1 / cf, tuple(a - b for a, b in zip(lcm, mf)))
    right = p_term_mul(g, 1 / cg, tuple(a - b for a, b in zip(lcm, mg)))
    return p_add(left, right, -1)


# ---- basis checks ------------------------------------------------------


def standard_monomial_count(leads: list, nvars: int):
    """Monomials outside the ideal the leading monomials generate; None
    when there are infinitely many (some variable has no pure power)."""
    caps = []
    for i in range(nvars):
        pure = [m[i] for m in leads if m[i] and not any(m[j] for j in range(nvars) if j != i)]
        if not pure:
            return None
        caps.append(min(pure))
    return sum(
        1
        for m in product(*(range(c) for c in caps))
        if not any(divides(lm, m) for lm in leads)
    )


def check_reduced_monic(basis: list, key) -> list:
    errors = []
    leads = [lead(g, key) for g in basis]
    for i, (g, (lm, lc)) in enumerate(zip(basis, leads)):
        if lc != 1:
            errors.append(f"element {i} is not monic (leading coefficient {lc})")
        for m in g:
            for j, (other, _) in enumerate(leads):
                if j != i and divides(other, m):
                    errors.append(f"element {i} has term {m} divisible by leading monomial of element {j}")
    return errors


def check_point_basis(basis: list, points: list, key) -> list:
    """A reduced basis of the vanishing ideal of a finite point set: every
    point is a zero of every element and the staircase holds exactly one
    monomial per point, which together with monic and reduced pins the
    basis down uniquely."""
    if not basis:
        return ["empty basis"]
    errors = check_reduced_monic(basis, key)
    for i, g in enumerate(basis):
        for point in points:
            if p_eval(g, point) != 0:
                errors.append(f"element {i} does not vanish at {point}")
                break
    nvars = len(next(iter(basis[0])))
    count = standard_monomial_count([lead(g, key)[0] for g in basis], nvars)
    if count != len(points):
        errors.append(f"{count} standard monomials for {len(points)} points")
    return errors


def check_groebner(basis: list, inputs: list, key) -> list:
    """Buchberger's criterion plus containment of the inputs."""
    errors = []
    for i, f in enumerate(inputs):
        if reduce_full(f, basis, key):
            errors.append(f"input {i} does not reduce to zero")
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            if reduce_full(s_poly(basis[i], basis[j], key), basis, key):
                errors.append(f"S-pair ({i}, {j}) does not reduce to zero")
    return errors


# ---- univariate real roots --------------------------------------------


def _u_trim(c: list) -> list:
    while c and c[-1] == 0:
        c.pop()
    return c


def _u_rem(a: list, b: list) -> list:
    a = list(a)
    while len(a) >= len(b) and a:
        f = a[-1] / b[-1]
        shift = len(a) - len(b)
        for k, bc in enumerate(b):
            a[shift + k] -= f * bc
        _u_trim(a)
    return a


def _u_eval(c: list, x) -> Fraction:
    acc = Fraction(0)
    for v in reversed(c):
        acc = acc * x + v
    return acc


def real_roots(coeffs: list, width: Fraction) -> list:
    """Distinct real roots of an exact univariate polynomial (coefficients
    lowest degree first), each the midpoint of an isolating interval of
    width below ``width``. Sturm's theorem counts the roots in an interval,
    so the result is complete, multiple roots included."""
    p = _u_trim([Fraction(c) for c in coeffs])
    if len(p) < 2:
        return []
    dp = [k * c for k, c in enumerate(p)][1:]
    a, b = p, dp
    while b:
        a, b = b, _u_rem(a, b)
    g = a  # gcd(p, p'): divide it out to get the square-free part
    q, r = [], list(p)
    while len(r) >= len(g):
        f = r[-1] / g[-1]
        shift = len(r) - len(g)
        q.append((shift, f))
        for k, gc in enumerate(g):
            r[shift + k] -= f * gc
        r.pop()
    sq = [Fraction(0)] * (max(s for s, _ in q) + 1)
    for s, f in q:
        sq[s] += f
    chain = [sq, [k * c for k, c in enumerate(sq)][1:]]
    while True:
        r = _u_rem(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-c for c in r])

    def variations(x) -> int:
        signs = [v for v in (_u_eval(c, x) for c in chain) if v]
        return sum(1 for u, v in zip(signs, signs[1:]) if (u < 0) != (v < 0))

    bound = 1 + max(abs(c / sq[-1]) for c in sq[:-1])
    roots = []
    stack = [(-bound, bound)]
    while stack:
        lo, hi = stack.pop()
        n = variations(lo) - variations(hi)  # roots in (lo, hi]
        if n == 0:
            continue
        if n == 1 and hi - lo < width:
            roots.append((lo + hi) / 2)
            continue
        mid = (lo + hi) / 2
        stack.append((lo, mid))
        stack.append((mid, hi))
    return sorted(roots)


def check_roots(found: list, expected: list, tol: float) -> list:
    if len(found) != len(expected):
        return [f"{len(found)} real roots returned, {len(expected)} expected"]
    bad = [(f, e) for f, e in zip(sorted(found), sorted(expected)) if abs(f - float(e)) > tol]
    return [f"root {f!r} differs from {float(e)!r}" for f, e in bad]


# ---- two-link inverse kinematics --------------------------------------


def angle_distance(a: float, b: float) -> float:
    d = abs(a - b) % (2 * math.pi)
    return min(d, 2 * math.pi - d)


def ik_closed_form(l1: float, l2: float, x: float, y: float) -> list:
    """Both elbow solutions by the law of cosines, for a target strictly
    inside the reachable annulus."""
    c2 = (x * x + y * y - l1 * l1 - l2 * l2) / (2 * l1 * l2)
    out = []
    for theta2 in (math.acos(c2), -math.acos(c2)):
        theta1 = math.atan2(y, x) - math.atan2(l2 * math.sin(theta2), l1 + l2 * math.cos(theta2))
        out.append((math.remainder(theta1, 2 * math.pi), theta2))
    return out


def check_ik(solutions: list, l1: float, l2: float, x: float, y: float, tol: float = 1e-6) -> list:
    """solutions: (theta1, theta2) pairs returned by the program."""
    expected = ik_closed_form(l1, l2, x, y)
    if len(solutions) != len(expected):
        return [f"{len(solutions)} solutions, {len(expected)} expected"]
    errors = []
    unmatched = list(expected)
    for t1, t2 in solutions:
        hit = next(
            (e for e in unmatched if angle_distance(t1, e[0]) <= tol and angle_distance(t2, e[1]) <= tol),
            None,
        )
        if hit is None:
            errors.append(f"solution ({t1!r}, {t2!r}) matches no closed-form solution")
        else:
            unmatched.remove(hit)
        fx = l1 * math.cos(t1) + l2 * math.cos(t1 + t2)
        fy = l1 * math.sin(t1) + l2 * math.sin(t1 + t2)
        if abs(fx - x) > tol or abs(fy - y) > tol:
            errors.append(f"forward kinematics of ({t1!r}, {t2!r}) misses the target")
    return errors


# ---- canonical text ----------------------------------------------------


def read_flat(text: str, names: list) -> Poly:
    """Read a flat sum of terms such as ``x^2*y - 3/2*y + 1``, the shape of
    the program's canonical output."""
    index = {n: i for i, n in enumerate(names)}
    out: Poly = {}
    if text.strip() == "0":
        return out
    chunks = text.replace(" - ", " + -").split(" + ")
    for chunk in chunks:
        chunk = chunk.strip()
        sign = 1
        if chunk.startswith("-"):
            sign, chunk = -1, chunk[1:]
        coeff = Fraction(sign)
        exps = [0] * len(names)
        for factor in chunk.split("*"):
            if factor[0].isdigit():
                coeff *= Fraction(factor)
            else:
                name, _, power = factor.partition("^")
                exps[index[name]] += int(power) if power else 1
        out = p_add(out, {tuple(exps): coeff})
    return out
