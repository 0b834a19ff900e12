"""Planar two-link inverse kinematics through polynomial elimination.

The joint angles enter through their cosines and sines, turning the
forward-kinematics equations into polynomials over (c1, s1, c2, s2)
with two unit-circle constraints. Their reduced lex basis, c1 > s1 >
c2 > s2, is written term by term. With r^2 = x^2 + y^2, the law of
cosines cos2 = (r^2 - l1^2 - l2^2) / (2*l1*l2) and A = l1 + l2*cos2:

    s2^2 + cos2^2 - 1,  c2 - cos2,
    s1 - (A*y - l2*x*s2) / r^2,  c1 - (A*x + l2*y*s2) / r^2,

the unit circle, the law of cosines and Cramer's rule on the linear
system in (c1, s1), of determinant r^2. They lie in the ideal, and
each system polynomial is checked to reduce to zero modulo them, so
they generate it. Their leading monomials s2^2, c2, s1 and c1 are
pairwise coprime (Buchberger's product criterion), each is monic and
every tail is a constant or linear in s2: the basis is reduced and in
shape position. A zero target or link leaves a continuum of poses: at
the origin, reachable only when l1 == l2, the folded arm can point
anywhere, and a zero link turns freely. The real roots of the first
member are isolated exactly over Q, the others are evaluated at each
root, and every pose is verified by forward kinematics.

Link lengths and targets are snapped to exact rationals before any
algebra, so the basis computation itself is exact; the snap error is
folded into the reported residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .division import divide
from .groebner import GroebnerBasis
from .ideal import univariate_real_roots
from .order import LEX
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
    return _system(_snap(arm.l1), _snap(arm.l2), _snap(target.x), _snap(target.y))


def _variables() -> list[Polynomial]:
    ctx = VariableContext(IK_VARIABLES)
    return [Polynomial.variable(ctx, n) for n in IK_VARIABLES]


def _system(l1: Fraction, l2: Fraction, x: Fraction, y: Fraction) -> list[Polynomial]:
    c1, s1, c2, s2 = _variables()
    return [
        l1 * c1 + l2 * (c1 * c2 - s1 * s2) - x,
        l1 * s1 + l2 * (s1 * c2 + c1 * s2) - y,
        c1 * c1 + s1 * s1 - 1,
        c2 * c2 + s2 * s2 - 1,
    ]


def _members(l1: Fraction, l2: Fraction, x: Fraction, y: Fraction) -> list[Polynomial]:
    """The reduced lex basis at the given rationals, term by term (see
    the module docstring). Neither the target nor a link may be zero."""
    c1, s1, c2, s2 = _variables()
    r2 = x * x + y * y
    cos2 = (r2 - l1 * l1 - l2 * l2) / (2 * l1 * l2)
    a = l1 + l2 * cos2
    return [
        s2 * s2 + (cos2 * cos2 - 1),
        c2 - cos2,
        s1 - (a * y - l2 * x * s2) / r2,
        c1 - (a * x + l2 * y * s2) / r2,
    ]


def _basis(l1: Fraction, l2: Fraction, x: Fraction, y: Fraction) -> GroebnerBasis:
    """The reduced lex basis of the system. The members lie in the ideal;
    the system reducing to zero modulo them proves they generate all of
    it. Neither the target nor a link may be zero."""
    members = _members(l1, l2, x, y)
    for f in _system(l1, l2, x, y):
        if divide(f, members, LEX).remainder:
            raise RuntimeError("the IK system does not reduce to zero modulo its basis members")
    return GroebnerBasis(tuple(members), LEX, reduced=True)


def forward_kinematics(arm: ArmSpec, theta1: float, theta2: float) -> tuple[float, float]:
    l1, l2 = float(arm.l1), float(arm.l2)
    return (
        l1 * math.cos(theta1) + l2 * math.cos(theta1 + theta2),
        l1 * math.sin(theta1) + l2 * math.sin(theta1 + theta2),
    )


def ik_solve(arm: ArmSpec, target: Target, tol: float = 1e-9) -> IKResult:
    """All joint-angle solutions for the target, sorted by theta1.

    Each real root of the eliminant in s2 gives one candidate pose
    through the three lifts (see the module docstring). Unreachable
    targets report an empty solution list with an "unreachable"
    diagnostic. The origin for equal links and any target of an arm with
    a link that snaps to zero admit a continuum of poses and are an
    error: the solution set is not finite.

    tol is an absolute position tolerance in the arm's length unit: a
    pose is kept when its forward kinematics lands within 10*tol of the
    snapped target. Float arithmetic cannot meet a tol below the floor
    2^-52 * max(1, l1 + l2), and such a tol is an error.
    """
    if not 0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    l1, l2 = _snap(arm.l1), _snap(arm.l2)
    x, y = _snap(target.x), _snap(target.y)
    # The float checks below see errors of a few ulps of the reach in a
    # position and of 1 in a cosine or sine.
    scale = max(1.0, float(l1 + l2))
    floor = 2**-52 * scale
    if tol < floor:
        raise ValueError(f"tol {tol:g} is below the floor {floor:.3g} that float arithmetic can meet for this arm")

    # The algebra is exact: outside the annulus by any margin, no real pose.
    radius_sq = x * x + y * y
    if radius_sq > (l1 + l2) ** 2 or radius_sq < (l1 - l2) ** 2:
        return IKResult(solutions=(), diagnostic="unreachable")
    # The folded arm of equal links at the origin, or a zero link: a
    # joint turns freely, and a leading coefficient of the basis vanishes.
    if not (radius_sq and l1 and l2):
        raise ValueError("solution set not finite")

    eliminant, *lifts = _basis(l1, l2, x, y).generators

    # Poses are checked against the snapped target the algebra solved.
    solutions = []
    fx_snap, fy_snap = float(x), float(y)
    fx_target, fy_target = float(target.x), float(target.y)
    # s2 is unitless; an error in it moves the end effector by up to the reach.
    for s2 in univariate_real_roots(eliminant, tol * 1e-2 / scale):
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
