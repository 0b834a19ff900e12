"""Closed-form underdamped mass-spring-damper motion.

For m*y'' + b*y' + k*y = 0 with 4mk - b^2 > 0 the motion is
A * exp(-b/(2m) * t) * sin(w*t + phi) with w = sqrt(4mk - b^2) / (2m);
the solution oscillates between the envelope curves +-A * exp(-b/(2m) * t).
Amplitude and phase come from the initial displacement and velocity.

The phase uses the two-argument arctangent of (C1, C2) so that
sin(phi) tracks C1 and cos(phi) tracks C2; a single-argument arctangent
of their ratio would lose the quadrant and break y(0) = y0 whenever
C2 < 0. The other damping regimes are rejected, not solved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import NamedTuple

from .reals import Real, all_finite

RELATIVE_EPSILON = 1e-12


@dataclass(frozen=True)
class OscillatorParams:
    """Mass (kg), spring constant (N/m), damping coefficient (N*s/m),
    initial displacement (m), initial velocity (m/s)."""

    m: Real
    k: Real
    b: Real
    y0: Real
    y1: Real

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            if not all_finite(value):
                raise ValueError(f"{field.name} must be finite, got {value}")
        if self.m <= 0:
            raise ValueError("mass must be positive")
        if self.k <= 0:
            raise ValueError("spring constant must be positive")
        if self.b < 0:
            raise ValueError("damping coefficient must be nonnegative")


@dataclass(frozen=True)
class OscillatorSolution:
    omega: float
    beta: float
    amplitude: float
    phase: float
    c1: float
    c2: float


class Sample(NamedTuple):
    t: float
    y: float
    env_hi: float
    env_lo: float


def _is_exact(value: Real) -> bool:
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


def classify(m: Real, k: Real, b: Real) -> str:
    """Damping regime: "underdamped", "critical", or "overdamped".

    The discriminant 4mk - b^2 is computed exactly in ``Fraction``s, a
    float being a binary rational, so no magnitude overflows or
    underflows it. With a float among the inputs, a discriminant within a
    relative epsilon of the larger of 4mk and b^2 counts as critical;
    with rational inputs only zero does.
    """
    if not all_finite(m, k, b):
        raise ValueError("mass, spring constant and damping must be finite")
    if m <= 0 or k <= 0:
        raise ValueError("mass and spring constant must be positive")
    if b < 0:
        raise ValueError("damping coefficient must be nonnegative")
    four_mk, b_squared = 4 * Fraction(m) * Fraction(k), Fraction(b) ** 2
    discriminant = four_mk - b_squared
    exact = _is_exact(m) and _is_exact(k) and _is_exact(b)
    if abs(discriminant) <= (0 if exact else Fraction(RELATIVE_EPSILON) * max(four_mk, b_squared)):
        return "critical"
    return "underdamped" if discriminant > 0 else "overdamped"


def solve_ivp(params: OscillatorParams) -> OscillatorSolution:
    """Amplitude-phase solution matching y(0) = y0 and y'(0) = y1."""
    if classify(params.m, params.k, params.b) != "underdamped":
        raise ValueError("underdamped regime required (4mk - b^2 <= 0)")
    m, k, b = Fraction(params.m), Fraction(params.k), Fraction(params.b)
    y0, y1 = _float(params.y0, "initial displacement"), _float(params.y1, "initial velocity")
    # omega^2 = (4mk - b^2) / (4m^2) = k/m - (b/(2m))^2 and beta = -b/(2m),
    # exact ratios whatever the magnitudes of m, k and b.
    omega = _sqrt(k / m - (b / (2 * m)) ** 2)
    if not 0 < omega < math.inf:
        raise ValueError(f"angular frequency {omega} is not a positive finite float")
    beta = _float(-b / (2 * m), "decay rate")
    c1 = y0
    c2 = (y1 - beta * y0) / omega
    amplitude = math.hypot(c1, c2)
    if amplitude == math.inf:
        raise ValueError("amplitude is past the float range")
    phase = math.atan2(c1, c2) if amplitude > 0 else 0.0
    return OscillatorSolution(
        omega=omega, beta=beta, amplitude=amplitude, phase=phase, c1=c1, c2=c2
    )


def _float(value: Real, name: str) -> float:
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} is past the float range") from None


def _sqrt(q: Fraction) -> float:
    """The square root of a positive rational as a float: inf past the
    float range, 0.0 below it."""
    # q / 4^e lies in (1/2, 4), and its square root times 2^e is q's.
    e = (q.numerator.bit_length() - q.denominator.bit_length()) // 2
    try:
        return math.ldexp(math.sqrt(q / Fraction(4) ** e), e)
    except OverflowError:
        return math.inf


def evaluate(sol: OscillatorSolution, t: float) -> Sample:
    """Time t, with the displacement and both envelope values at it; a
    ValueError when the angle omega*t + phase overflows the float range."""
    angle = sol.omega * t + sol.phase
    if abs(angle) == math.inf:
        raise ValueError(f"the angle omega*t + phase overflows the float range at t = {t}")
    envelope = sol.amplitude * math.exp(sol.beta * t)
    return Sample(t=t, y=envelope * math.sin(angle), env_hi=envelope, env_lo=-envelope)


def sample(sol: OscillatorSolution, t_end: float, n: int) -> list[Sample]:
    """n uniformly spaced samples on [0, t_end], endpoints included."""
    if not all_finite(t_end) or t_end <= 0:
        raise ValueError(f"t_end must be positive and finite, got {t_end}")
    if not isinstance(n, int) or n < 2:
        raise ValueError("n must be an integer >= 2")
    return [evaluate(sol, _time(t_end, j, n - 1)) for j in range(n)]


def _time(t_end: float, j: int, steps: int) -> float:
    """t_end * j / steps; where t_end * j overflows, the exact quotient,
    which is at most t_end, rounded once."""
    t = t_end * j / steps
    return t if t < math.inf else float(Fraction(t_end) * j / steps)
