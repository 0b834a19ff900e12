"""Planar two-link inverse kinematics through polynomial elimination.

The joint angles enter through their cosines and sines, turning the
forward-kinematics equations into polynomials over (c1, s1, c2, s2)
with two unit-circle constraints. For every reachable target but the
origin, the reduced lex basis with c1 > s1 > c2 > s2 is in shape
position: an eliminant e(s2) and the lifts c2 - h3(s2), s1 - h2(s2),
c1 - h1(s2), each h of degree at most one. The law of cosines fixes
c2 = (r^2 - l1^2 - l2^2) / (2*l1*l2), where r^2 = x^2 + y^2, and
(c1, s1) solves a 2x2 linear system of determinant r^2. At the origin,
reachable only when l1 == l2, that determinant vanishes: the folded
arm can point anywhere and the basis is {s2, c2 + 1, c1^2 + s1^2 - 1}.
The real roots of the eliminant are isolated exactly over Q, each lift
is evaluated at each root, and every pose is verified by forward
kinematics.

Link lengths and targets are snapped to exact rationals before any
algebra, so the basis computation itself is exact; the snap error is
folded into the reported residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .groebner import buchberger, reduce_basis
from .ideal import univariate_real_roots
from .order import MonomialOrder
from .reals import Real, all_finite
from .ring import Polynomial, VariableContext

IK_VARIABLES = ("c1", "s1", "c2", "s2")

SNAP_DENOMINATOR = 10**6


@dataclass(frozen=True)
class ArmSpec:
    """Two positive link lengths, in meters."""

    l1: Real
    l2: Real

    def __post_init__(self):
        if not all_finite(self.l1, self.l2):
            raise ValueError("link lengths must be finite")
        if self.l1 <= 0 or self.l2 <= 0:
            raise ValueError("link lengths must be positive")


@dataclass(frozen=True)
class Target:
    """End-effector coordinates, in meters."""

    x: Real
    y: Real

    def __post_init__(self):
        if not all_finite(self.x, self.y):
            raise ValueError("target coordinates must be finite")


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

    The reduced lex basis of a reachable target is in shape position
    (see the module docstring), so each real root of the eliminant in s2
    gives one candidate pose through the three lifts. Unreachable targets
    report an empty solution list with an "unreachable" diagnostic. The
    one reachable target whose basis is not in shape position, the
    origin for equal links, admits a continuum of folded poses and is an
    error: the solution set is not finite.
    """
    if not 0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    l1, l2 = _snap(arm.l1), _snap(arm.l2)
    x, y = _snap(target.x), _snap(target.y)

    # The algebra is exact: outside the annulus by any margin, no real pose.
    radius_sq = x * x + y * y
    if radius_sq > (l1 + l2) ** 2 or radius_sq < (l1 - l2) ** 2:
        return IKResult(solutions=(), diagnostic="unreachable")

    basis = reduce_basis(buchberger(ik_system(arm, target), MonomialOrder.LEX))
    eliminant, *lifts = basis.generators
    if len(lifts) != 3 or not all(map(_is_lift, lifts)):
        raise ValueError("solution set not finite")

    # Poses are checked against the snapped target the algebra solved.
    solutions = []
    fx_snap, fy_snap = float(x), float(y)
    fx_target, fy_target = float(target.x), float(target.y)
    for s2 in univariate_real_roots(eliminant, tol * 1e-2):
        c2, s1, c1 = (_lift_value(g, s2) for g in lifts)  # sorted c2 < s1 < c1
        off_circle = max(abs(c1**2 + s1**2 - 1), abs(c2**2 + s2**2 - 1))
        if off_circle > 10 * tol:
            continue
        theta1 = _angle(c1, s1)
        theta2 = _angle(c2, s2)
        fx, fy = forward_kinematics(arm, theta1, theta2)
        if abs(fx - fx_snap) + abs(fy - fy_snap) <= 10 * tol:
            residual = abs(fx - fx_target) + abs(fy - fy_target)
            solutions.append(JointSolution(theta1, theta2, residual))

    solutions = _deduplicate(solutions, tol)
    solutions.sort(key=lambda s: (s.theta1, s.theta2))
    return IKResult(solutions=tuple(solutions), diagnostic=None)


def _is_lift(g: Polynomial) -> bool:
    """Whether g is v - h(s2): one term outside s2, a lone variable v."""
    outside = [m for m in g.terms if any(m[:-1])]
    return len(outside) == 1 and outside[0].degree == 1


def _lift_value(g: Polynomial, s2: float) -> float:
    """h(s2) for a lift v - h(s2), the value it gives its variable v."""
    return -sum(float(c) * s2 ** m[-1] for m, c in g.terms.items() if not any(m[:-1]))


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
