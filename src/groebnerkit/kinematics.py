"""Planar two-link inverse kinematics through polynomial elimination.

The joint angles enter through their cosines and sines, turning the
forward-kinematics equations into polynomials over (c1, s1, c2, s2)
with two unit-circle constraints. Their reduced lex basis, c1 > s1 >
c2 > s2, is a closed form. With r^2 = x^2 + y^2, the law of cosines
cos2 = (r^2 - l1^2 - l2^2) / (2*l1*l2) and A = l1 + l2*cos2:

    s2^2 + cos2^2 - 1,  c2 - cos2,
    s1 - (A*y - l2*x*s2) / r^2,  c1 - (A*x + l2*y*s2) / r^2,

the unit circle, the law of cosines and Cramer's rule on the linear
system in (c1, s1), of determinant r^2. They generate the system's
ideal wherever l1*l2*r^2 != 0: tests/test_kinematics.py writes each
system polynomial as a combination of them, and each of them as one
of the system, once over Q[l1, l2, x, y]. Their leading monomials
s2^2, c2, s1 and c1 are pairwise coprime (Buchberger's product
criterion), each is monic and every tail is a constant or linear in
s2: the basis is reduced and in shape position.
"""

from __future__ import annotations

import decimal
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .ideal import univariate_real_roots
from .reals import Real, all_finite
from .ring import START_WIDTH, Polynomial, VariableContext, _new

IK_VARIABLES = ("c1", "s1", "c2", "s2")

# The algebra no target changes, built once; polynomials are immutable
# values. cos12 and sin12 are cos and sin of theta1 + theta2.
_CONTEXT = VariableContext(IK_VARIABLES)
_C1, _S1, _C2, _S2 = (Polynomial.variable(_CONTEXT, n) for n in IK_VARIABLES)
_COS12, _SIN12 = (_C1 * _C2 - _S1 * _S2, _S1 * _C2 + _C1 * _S2)
_CIRCLES = (_C1 * _C1 + _S1 * _S1 - 1, _C2 * _C2 + _S2 * _S2 - 1)
(_S2_SQUARED,) = (_S2 * _S2)._numerators  # the packed monomial


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


def _pair(value: Real) -> tuple[int, int]:
    """The rational a value reads as, as an integer numerator and a
    positive denominator: a float as the shortest decimal that reads back
    as the same float, the digits of its repr over a power of ten; an int
    or a Fraction as its own numerator and denominator; any other number
    as Fraction(value) reads it. The pair need not be in lowest terms."""
    if isinstance(value, float):
        digits, _, exponent = repr(value).partition("e")
        whole, _, fraction = digits.partition(".")
        k = len(fraction) - int(exponent) if exponent else len(fraction)
        n = int(whole + fraction)
        return (n, 10**k) if k >= 0 else (n * 10**-k, 1)
    if not isinstance(value, (int, Fraction)):
        value = Fraction(value)
    return value.numerator, value.denominator


def _exact(value: Real) -> Fraction:
    """The rational a value reads as (``_pair``), as a Fraction."""
    return Fraction(*_pair(value))


def ik_system(arm: ArmSpec, target: Target) -> list[Polynomial]:
    """The four polynomials whose common zeros are the arm's poses.

    Two forward-kinematics equations in cosine/sine variables and the
    two Pythagorean constraints; the latter are target-independent.
    """
    return _system(_exact(arm.l1), _exact(arm.l2), _exact(target.x), _exact(target.y))


def _system(l1: Fraction, l2: Fraction, x: Fraction, y: Fraction) -> list[Polynomial]:
    return [l1 * _C1 + l2 * _COS12 - x, l1 * _S1 + l2 * _SIN12 - y, *_CIRCLES]


def _cleared(*values: Real) -> tuple[list[int], int]:
    """The values as they read (``_pair``): integer numerators over one
    positive common denominator, the lcm of theirs, and that denominator."""
    pairs = [_pair(v) for v in values]
    q = math.lcm(*[d for _, d in pairs])
    return [n * (q // d) for n, d in pairs], q


def _closed_form(l1: int, l2: int, x: int, y: int) -> tuple[int, ...]:
    """The basis's cos2, A*y/r^2, l2*x/r^2, A*x/r^2 and l2*y/r^2 as
    numerators over one positive denominator, returned last; not at the
    origin. Each is unitless, so an arm and target scaled to integers
    give the same values."""
    r2 = x * x + y * y
    p = r2 - l1 * l1 - l2 * l2  # 2*l1*l2*cos2
    k = p + 2 * l1 * l1  # 2*l1*A
    m = 2 * l1 * l2
    return p * r2, k * y * l2, m * l2 * x, k * x * l2, m * l2 * y, m * r2


def _eliminant(form: tuple[int, ...]) -> Polynomial:
    """s2^2 + cos2^2 - 1, the basis member in s2 alone. With cos2 = p / m
    in lowest terms it is s2^2 + (p^2 - m^2) / m^2, and that is least
    too: a prime of m that divided p^2 - m^2 would divide p."""
    g = math.gcd(form[0], form[-1])
    p, m = form[0] // g, form[-1] // g
    den, constant = m * m, p * p - m * m
    numerators = {_S2_SQUARED: den, 0: constant} if constant else {_S2_SQUARED: den}
    return _new(_CONTEXT, numerators, den, 2, START_WIDTH)


def _lifts(form: tuple[int, ...], s2, d=1):
    """c2, s1 and c1 at s2 / d, times d and the form's denominator, as the
    other members give them: polynomials at _S2, integers at a root."""
    cos2, ay, l2x, ax, l2y, _ = form
    return cos2 * d, ay * d - l2x * s2, ax * d + l2y * s2


def _lift(form: tuple[int, ...], root: float) -> tuple[int, ...]:
    """c1, s1, c2 and s2 at the root s2, exactly, as integers over one
    positive denominator, returned last: the form's times the root's.
    (Near the origin a lift's coefficient can pass the float range while
    its product with the small root does not.)"""
    num, d = root.as_integer_ratio()
    c2, s1, c1 = _lifts(form, num, d)
    return c1, s1, c2, num * form[-1], form[-1] * d


def _members(l1: Real, l2: Real, x: Real, y: Real) -> list[Polynomial]:
    """The reduced lex basis at the values as they read, sorted s2 < c2 < s1 < c1."""
    form = _closed_form(*_cleared(l1, l2, x, y)[0])
    c2, s1, c1 = _lifts(form, _S2)
    unit = Fraction(1, form[-1])
    return [_eliminant(form), _C2 - c2 * unit, _S1 - s1 * unit, _C1 - c1 * unit]


def forward_kinematics(arm: ArmSpec, theta1: float, theta2: float) -> tuple[float, float]:
    return _forward(float(arm.l1), float(arm.l2), theta1, theta2)


def _forward(l1: float, l2: float, theta1: float, theta2: float) -> tuple[float, float]:
    return (
        l1 * math.cos(theta1) + l2 * math.cos(theta1 + theta2),
        l1 * math.sin(theta1) + l2 * math.sin(theta1 + theta2),
    )


def ik_solve(arm: ArmSpec, target: Target, tol: float = 1e-9) -> IKResult:
    """All joint-angle solutions for the target, sorted by theta1.

    Each real root of the eliminant in s2 gives one candidate pose
    through the three lifts; the module docstring says where they are
    proved. Unreachable targets report an empty solution list with an
    "unreachable" diagnostic. The origin for equal links admits a
    continuum of poses and is an error: the solution set is not finite.

    tol is an absolute position tolerance in the arm's length unit. A
    pose is kept when forward kinematics of the arm lands within 10*tol
    of the target, and that distance is its residual. Float arithmetic
    cannot meet a tol below the floor 2^-52 * max(1, l1 + l2), and such
    a tol is an error, as are a tol and a reach l1 + l2 beyond the float
    range. A float is read as the decimal it prints; pass Fraction(1, 3),
    not 1/3, for an exact third.
    """
    if not 0 < tol <= sys.float_info.max:
        raise ValueError("tol must be positive and finite")
    # Scaled by their common denominator q, the inputs are integers; every
    # comparison below and every closed-form value is unchanged by it.
    (l1, l2, x, y), q = _cleared(arm.l1, arm.l2, target.x, target.y)
    # The pose check sees float errors of a few ulps of the reach.
    try:
        scale = max(1.0, (l1 + l2) / q)
    except OverflowError:
        raise ValueError("the reach l1 + l2 is beyond the float range") from None
    floor = 2**-52 * scale
    if tol < floor:
        shown = float(tol) or decimal.Context(prec=6, Emin=decimal.MIN_EMIN).divide(tol.numerator, tol.denominator)
        raise ValueError(f"tol {shown:g} is below the floor {floor:.3g} that float arithmetic can meet for this arm")

    # The algebra is exact: outside the annulus by any margin, no real pose.
    radius_sq = x * x + y * y
    if radius_sq > (l1 + l2) ** 2 or radius_sq < (l1 - l2) ** 2:
        return IKResult(solutions=(), diagnostic="unreachable")
    # The folded arm of equal links at the origin turns freely.
    if radius_sq == 0:
        raise ValueError("solution set not finite")

    form = _closed_form(l1, l2, x, y)
    # int / int rounds correctly, as float() of the arm's lengths does.
    fl1, fl2, fx, fy = l1 / q, l2 / q, x / q, y / q
    solutions = []
    # s2 is unitless; an error in it moves the end effector by up to the reach.
    for root in univariate_real_roots(_eliminant(form), tol * 1e-2 / scale):
        c1, s1, c2, s2, _ = _lift(form, root)
        theta1, theta2 = _angle(c1, s1), _angle(c2, s2)
        ex, ey = _forward(fl1, fl2, theta1, theta2)
        residual = abs(ex - fx) + abs(ey - fy)
        if residual <= 10 * tol:
            solutions.append(JointSolution(theta1, theta2, residual))

    # tol is a length; an angle moves the end effector by up to scale times it.
    solutions = _deduplicate(solutions, tol / scale)
    solutions.sort(key=lambda s: (s.theta1, s.theta2))
    return IKResult(solutions=tuple(solutions), diagnostic=None)


def _angle(cosine: int, sine: int) -> float:
    """The angle of the direction (cosine, sine), in (-pi, pi]; ints
    scaled by any one positive factor give the same angle."""
    # atan2 reads only the direction; over the larger magnitude both are
    # at most 1, and int / int rounds correctly, as float(Fraction) does.
    scale = max(abs(cosine), abs(sine)) or 1
    theta = math.atan2(sine / scale, cosine / scale)
    if theta <= -math.pi:
        theta += 2 * math.pi
    return theta + 0.0  # fold -0.0 into 0.0


def _deduplicate(solutions: list[JointSolution], radians: float) -> list[JointSolution]:
    """One pose of each set whose joint angles lie within radians of each other."""
    kept: list[JointSolution] = []
    for s in sorted(solutions, key=lambda s: s.residual):
        duplicate = any(
            _angle_distance(s.theta1, t.theta1) <= radians
            and _angle_distance(s.theta2, t.theta2) <= radians
            for t in kept
        )
        if not duplicate:
            kept.append(s)
    return kept


def _angle_distance(a: float, b: float) -> float:
    d = abs(a - b) % (2 * math.pi)
    return min(d, 2 * math.pi - d)
