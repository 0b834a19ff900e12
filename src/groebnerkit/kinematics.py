"""Planar two-link inverse kinematics through polynomial elimination.

The joint angles enter through their cosines and sines, turning the
forward-kinematics equations into polynomials over (c1, s1, c2, s2)
with two unit-circle constraints. A lex Groebner basis with
c1 > s1 > c2 > s2 triangularizes the system; the univariate eliminant
in the last variable is solved numerically and the remaining variables
recovered by back-substitution, each candidate checked for consistency
against every polynomial it must satisfy and finally verified by
forward kinematics.

Link lengths and targets are snapped to exact rationals before any
algebra, so the basis computation itself is exact; the snap error is
folded into the reported residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .groebner import buchberger, reduce_basis
from .ideal import univariate_real_roots
from .order import MonomialOrder, leading_monomial
from .ring import Monomial, Polynomial, VariableContext

IK_VARIABLES = ("c1", "s1", "c2", "s2")

SNAP_DENOMINATOR = 10**6

Real = Union[int, float, Fraction]


@dataclass(frozen=True)
class ArmSpec:
    """Two positive link lengths, in meters."""

    l1: Real
    l2: Real

    def __post_init__(self):
        if self.l1 <= 0 or self.l2 <= 0:
            raise ValueError("link lengths must be positive")


@dataclass(frozen=True)
class Target:
    """End-effector coordinates, in meters."""

    x: Real
    y: Real


@dataclass(frozen=True)
class JointSolution:
    """Joint angles in radians, each in (-pi, pi], plus the
    forward-kinematics error norm."""

    theta1: float
    theta2: float
    residual: float


@dataclass(frozen=True)
class IKResult:
    solutions: tuple[JointSolution, ...]
    diagnostic: Optional[str] = None

    def __iter__(self):
        return iter(self.solutions)


def _snap(value: Real) -> Fraction:
    """Rationals pass through exactly; floats snap to denominator <= 10^6."""
    if isinstance(value, float):
        return Fraction(value).limit_denominator(SNAP_DENOMINATOR)
    return Fraction(value)


def ik_system(arm: ArmSpec, target: Target) -> list[Polynomial]:
    """The four polynomials whose common zeros are the arm's poses.

    Two forward-kinematics equations in cosine/sine variables and the
    two Pythagorean constraints; the latter are target-independent.
    """
    ctx = VariableContext(IK_VARIABLES)
    c1, s1, c2, s2 = (Polynomial.variable(ctx, n) for n in IK_VARIABLES)
    l1, l2 = _snap(arm.l1), _snap(arm.l2)
    x, y = _snap(target.x), _snap(target.y)
    return [
        l1 * c1 + l2 * (c1 * c2 - s1 * s2) - x,
        l1 * s1 + l2 * (s1 * c2 + c1 * s2) - y,
        c1 * c1 + s1 * s1 - 1,
        c2 * c2 + s2 * s2 - 1,
    ]


def forward_kinematics(arm: ArmSpec, theta1: float, theta2: float) -> tuple[float, float]:
    l1, l2 = float(arm.l1), float(arm.l2)
    return (
        l1 * math.cos(theta1) + l2 * math.cos(theta1 + theta2),
        l1 * math.sin(theta1) + l2 * math.sin(theta1 + theta2),
    )


def ik_solve(arm: ArmSpec, target: Target, tol: float = 1e-9) -> IKResult:
    """All joint-angle solutions for the target, sorted by theta1.

    Unreachable targets report an empty solution list with an
    "unreachable" diagnostic. A target admitting a continuum of poses
    (the folded arm passing through the origin) is an error: the
    solution set is not finite.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    l1, l2 = _snap(arm.l1), _snap(arm.l2)
    x, y = _snap(target.x), _snap(target.y)

    # The algebra is exact: outside the annulus by any margin, no real pose.
    radius_sq = x * x + y * y
    if radius_sq > (l1 + l2) ** 2 or radius_sq < (l1 - l2) ** 2:
        return IKResult(solutions=(), diagnostic="unreachable")

    basis = reduce_basis(buchberger(ik_system(arm, target), MonomialOrder.LEX))
    gens = list(basis.generators)
    if any(g.total_degree == 0 for g in gens):
        return IKResult(solutions=(), diagnostic="unreachable")  # unit ideal
    _require_finite(gens, basis.order)

    assignments: list[dict[int, float]] = [{}]
    for var in reversed(range(len(IK_VARIABLES))):
        candidates = [
            g
            for g in gens
            if _max_var(g) == var  # involves var and nothing more significant
        ]
        next_assignments: list[dict[int, float]] = []
        for known in assignments:
            values = _solve_variable(candidates, var, known, tol)
            next_assignments.extend(known | {var: v} for v in values)
        assignments = next_assignments

    # Poses are checked against the snapped target the algebra solved.
    solutions = []
    fx_snap, fy_snap = float(x), float(y)
    fx_target, fy_target = float(target.x), float(target.y)
    for a in assignments:
        off_circle = max(
            abs(a[0] ** 2 + a[1] ** 2 - 1), abs(a[2] ** 2 + a[3] ** 2 - 1)
        )
        if off_circle > 10 * tol:
            continue
        theta1 = _angle(a[0], a[1])
        theta2 = _angle(a[2], a[3])
        fx, fy = forward_kinematics(arm, theta1, theta2)
        if abs(fx - fx_snap) + abs(fy - fy_snap) <= 10 * tol:
            residual = abs(fx - fx_target) + abs(fy - fy_target)
            solutions.append(JointSolution(theta1, theta2, residual))

    solutions = _deduplicate(solutions, tol)
    solutions.sort(key=lambda s: (s.theta1, s.theta2))
    return IKResult(solutions=tuple(solutions), diagnostic=None)


def _max_var(g: Polynomial) -> int:
    """Index of the most significant variable appearing in g."""
    indices = [min(i for i, e in enumerate(m) if e) for m in g.terms if any(m)]
    return min(indices) if indices else len(IK_VARIABLES)


def _require_finite(gens: list[Polynomial], order: MonomialOrder) -> None:
    # Zero-dimensionality: every variable's pure power must lead some member.
    nvars = len(IK_VARIABLES)
    covered = set()
    for g in gens:
        lm = leading_monomial(g, order)
        support = [i for i, e in enumerate(lm) if e]
        if len(support) == 1:
            covered.add(support[0])
    if covered != set(range(nvars)):
        raise ValueError("solution set not finite")


def _solve_variable(
    candidates: list[Polynomial], var: int, known: dict[int, float], tol: float
) -> list[float]:
    """Roots for one variable given values of all less significant ones.

    Each candidate polynomial is specialized to a univariate in var; the
    lowest-degree nonvanishing specialization supplies the roots and the
    rest filter them for consistency.
    """
    specialized = []
    for g in candidates:
        coeffs, scale = _specialize(g, var, known)
        eps = 1e-12 * max(1.0, scale)
        while len(coeffs) > 1 and abs(coeffs[-1]) <= eps:
            coeffs.pop()
        if max(abs(c) for c in coeffs) <= eps:
            continue  # vanished identically at this assignment
        specialized.append((coeffs, scale))
    if not specialized:
        raise ValueError("solution set not finite")

    specialized.sort(key=lambda cs: len(cs[0]))
    coeffs, _ = specialized[0]
    if len(coeffs) == 1:
        return []  # nonzero constant: no consistent value at all
    if len(coeffs) == 2:
        roots = [-coeffs[0] / coeffs[1]]
    else:
        roots = _float_coefficient_roots(coeffs, tol * 1e-2)

    consistent = []
    for r in roots:
        ok = True
        for other_coeffs, other_scale in specialized[1:]:
            value = 0.0
            for c in reversed(other_coeffs):
                value = value * r + c
            if abs(value) > 1e-6 * max(1.0, other_scale):
                ok = False
                break
        if ok:
            consistent.append(r)
    return consistent


def _specialize(
    g: Polynomial, var: int, known: dict[int, float]
) -> tuple[list[float], float]:
    """Numeric coefficients of g as a univariate in var, plus a magnitude
    scale for noise thresholds."""
    degree = max(m[var] for m in g.terms)
    coeffs = [0.0] * (degree + 1)
    scale = 0.0
    for m, c in g.terms.items():
        contribution = float(c)
        for i, e in enumerate(m):
            if e and i != var:
                contribution *= known[i] ** e
        coeffs[m[var]] += contribution
        scale += abs(contribution)
    return coeffs, scale


def _float_coefficient_roots(coeffs: list[float], tol: float) -> list[float]:
    # Floats convert to Fractions exactly, so the one exact isolator in
    # ideal.py serves float-coefficient polynomials too.
    ctx = VariableContext(("v",))
    poly = Polynomial(
        ctx, {Monomial((e,)): Fraction(c) for e, c in enumerate(coeffs) if c}
    )
    return univariate_real_roots(poly, tol)


def _angle(cosine: float, sine: float) -> float:
    theta = math.atan2(sine, cosine)
    if theta <= -math.pi:
        theta += 2 * math.pi
    return theta + 0.0  # fold -0.0 into 0.0


def _deduplicate(solutions: list[JointSolution], tol: float) -> list[JointSolution]:
    kept: list[JointSolution] = []
    for s in sorted(solutions, key=lambda s: s.residual):
        duplicate = any(
            _angle_distance(s.theta1, t.theta1) <= tol
            and _angle_distance(s.theta2, t.theta2) <= tol
            for t in kept
        )
        if not duplicate:
            kept.append(s)
    return kept


def _angle_distance(a: float, b: float) -> float:
    d = abs(a - b) % (2 * math.pi)
    return min(d, 2 * math.pi - d)
