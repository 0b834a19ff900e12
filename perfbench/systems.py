"""Seeded input systems, written as text the program parses.

A point system is a zero-dimensional system of products of distinct
linear factors, f_i = prod_j (l_i(x) - r_ij), where the l_i are integer
linear forms with a nonzero determinant. Its solutions are the rational
points with l_i(x) = r_ij for one j per i, so the benchmark knows every
solution exactly without asking the program.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from oracle import Poly, p_add, p_mul


@dataclass(frozen=True)
class PointSystem:
    names: tuple
    texts: tuple
    polys: tuple  # oracle-side copies of the generators
    points: tuple  # every solution, exact


def format_flat(p: Poly, names) -> str:
    """Sum of terms in the program's input grammar (any term order)."""
    if not p:
        return "0"
    chunks = []
    for m, c in sorted(p.items(), reverse=True):
        factors = [n if e == 1 else f"{n}^{e}" for n, e in zip(names, m) if e]
        mag = abs(c)
        body = "*".join(factors)
        if not body:
            body = str(mag)
        elif mag != 1:
            body = f"{mag}*{body}"
        chunks.append(("-" if c < 0 else "+") + " " + body)
    text = " ".join(chunks)
    return text[2:] if text.startswith("+") else "-" + text[2:]


def _inverse(a: list) -> list:
    n = len(a)
    m = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        inv = 1 / m[col][col]
        m[col] = [v * inv for v in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [v - f * w for v, w in zip(m[r], m[col])]
    return [row[n:] for row in m]


def point_system(forms, offsets) -> PointSystem:
    """f_i = prod_j (forms[i] . x - offsets[i][j]), with exact solutions."""
    n = len(forms)
    names = tuple(f"x{i}" for i in range(n))
    inverse = _inverse(forms)
    if inverse is None:
        raise ValueError("linear forms must have a nonzero determinant")
    texts, polys = [], []
    for row, rs in zip(forms, offsets):
        form = {tuple(int(i == k) for i in range(n)): Fraction(a) for k, a in enumerate(row)}
        factors, poly = [], {(0,) * n: Fraction(1)}
        for r in rs:
            factor = p_add(form, {(0,) * n: Fraction(-r)})
            factors.append(f"({format_flat(factor, names)})")
            poly = p_mul(poly, factor)
        texts.append("*".join(factors))
        polys.append(poly)
    points = tuple(
        tuple(sum(inv * r for inv, r in zip(inv_row, rhs)) for inv_row in inverse)
        for rhs in product(*offsets)
    )
    return PointSystem(names, tuple(texts), tuple(polys), points)


def random_point_system(rng, degrees, entry=3, offset=4) -> PointSystem:
    """Linear forms with nonzero integer entries in [-entry, entry] and
    distinct integer offsets in [-offset, offset], degrees[i] per form."""
    n = len(degrees)
    choices = [v for v in range(-entry, entry + 1) if v]
    while True:
        forms = [[rng.choice(choices) for _ in range(n)] for _ in range(n)]
        if _inverse(forms) is not None:
            break
    offsets = [rng.sample(range(-offset, offset + 1), d) for d in degrees]
    return point_system(forms, offsets)


def katsura(n: int):
    """Katsura-n in u0..un: n+1 equations with 2^n solutions."""
    names = tuple(f"u{i}" for i in range(n + 1))

    def u(k):
        k = abs(k)
        return {tuple(int(i == k) for i in range(n + 1)): Fraction(1)} if k <= n else {}

    polys = []
    linear = {}
    for k in range(-n, n + 1):
        linear = p_add(linear, u(k))
    polys.append(p_add(linear, {(0,) * (n + 1): Fraction(1)}, -1))
    for m in range(n):
        acc = {}
        for k in range(-n, n + 1):
            acc = p_add(acc, p_mul(u(k), u(m - k)))
        polys.append(p_add(acc, u(m), -1))
    return names, tuple(format_flat(p, names) for p in polys), tuple(polys)


def cyclic(n: int):
    """Cyclic-n: the elementary cyclic sums of degree 1..n-1, and the
    product minus one."""
    names = tuple("abcdefgh"[:n])
    polys = []
    for d in range(1, n):
        acc = {}
        for start in range(n):
            acc = p_add(acc, {tuple(int((i - start) % n < d) for i in range(n)): Fraction(1)})
        polys.append(acc)
    polys.append({(1,) * n: Fraction(1), (0,) * n: Fraction(-1)})
    return names, tuple(format_flat(p, names) for p in polys), tuple(polys)
