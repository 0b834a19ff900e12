import math
import random
from fractions import Fraction

import pytest

from groebnerkit.oscillator import (
    OscillatorParams,
    OscillatorSolution,
    classify,
    evaluate,
    sample,
    solve_ivp,
)


def amplitude_from_initial_conditions(m, k, b, y0, y1):
    """Closed-form amplitude straight from the initial-value algebra."""
    return 2 * math.sqrt(m * (k * y0 * y0 + b * y0 * y1 + m * y1 * y1) / (4 * m * k - b * b))


def random_underdamped(rng):
    m = rng.uniform(0.1, 10.0)
    k = rng.uniform(0.1, 10.0)
    b = math.sqrt(4 * m * k) * rng.uniform(0.0, 0.95)
    y0 = rng.uniform(-5.0, 5.0)
    y1 = rng.uniform(-5.0, 5.0)
    return OscillatorParams(m=m, k=k, b=b, y0=y0, y1=y1)


class TestClassify:
    def test_regimes(self):
        assert classify(1, 1, 0) == "underdamped"
        assert classify(1, 1, 2) == "critical"
        assert classify(1, 1, 3) == "overdamped"

    def test_exact_rational_boundary(self):
        assert classify(Fraction(1, 4), 1, 1) == "critical"
        assert classify(Fraction(1, 4), 1, Fraction(999, 1000)) == "underdamped"

    def test_float_epsilon_boundary(self):
        assert classify(0.25, 1.0, 1.0 + 1e-14) == "critical"

    @pytest.mark.parametrize(
        "m, k, b, regime",
        [
            (1e200, 1e200, 0.0, "underdamped"),  # 4mk overflows a float
            (1e-200, 1e-200, 0.0, "underdamped"),  # 4mk underflows to 0
            (1e155, 1e155, 1e155, "underdamped"),  # 4mk and b^2 both overflow
            (1e200, 1e200, 2e200, "critical"),
            (1e-200, 1e-200, 3e-200, "overdamped"),
        ],
    )
    def test_extreme_float_magnitudes(self, m, k, b, regime):
        assert classify(m, k, b) == regime

    @pytest.mark.parametrize("args", [(math.nan, 1, 0), (1, math.inf, 0), (1, 1, -math.inf)])
    def test_non_finite_rejected(self, args):
        with pytest.raises(ValueError, match="must be finite"):
            classify(*args)

    def test_validation(self):
        with pytest.raises(ValueError):
            classify(0, 1, 0)
        with pytest.raises(ValueError):
            classify(1, -1, 0)
        with pytest.raises(ValueError):
            classify(1, 1, -0.5)


class TestSolveIvp:
    def test_pure_sine(self):
        sol = solve_ivp(OscillatorParams(m=1, k=1, b=0, y0=0, y1=1))
        assert sol.omega == pytest.approx(1.0, abs=1e-15)
        assert sol.beta == 0.0
        assert sol.amplitude == pytest.approx(1.0, abs=1e-15)
        assert sol.phase == pytest.approx(0.0, abs=1e-15)

    def test_pure_cosine(self):
        sol = solve_ivp(OscillatorParams(m=1, k=1, b=0, y0=1, y1=0))
        assert sol.amplitude == pytest.approx(1.0, abs=1e-15)
        assert sol.phase == pytest.approx(math.pi / 2, abs=1e-15)

    def test_damped_example(self):
        sol = solve_ivp(OscillatorParams(m=1, k=5, b=2, y0=1, y1=0))
        assert sol.omega == pytest.approx(2.0, abs=1e-15)
        assert sol.beta == pytest.approx(-1.0, abs=1e-15)
        assert sol.amplitude == pytest.approx(math.sqrt(5) / 2, rel=1e-15)
        assert sol.phase == pytest.approx(math.atan(2), rel=1e-15)

    def test_rest_state(self):
        sol = solve_ivp(OscillatorParams(m=1, k=1, b=1, y0=0, y1=0))
        assert sol.amplitude == 0.0
        assert sol.phase == 0.0

    def test_exact_extreme_magnitudes_sample(self):
        # 4mk = 4 * 10^400 is past the float range, but omega = sqrt(k/m) = 1.
        sol = solve_ivp(OscillatorParams(10**200, 10**200, 0, 1, 0))
        assert sol.omega == pytest.approx(1.0, rel=1e-15)
        rows = sample(sol, math.pi, 3)
        assert [r.y for r in rows] == pytest.approx([1.0, 0.0, -1.0], abs=1e-15)

    def test_float_extreme_magnitudes(self):
        sol = solve_ivp(OscillatorParams(1e200, 1e200, 0.0, 1.0, 0.0))
        assert sol.omega == pytest.approx(1.0, rel=1e-15)
        sol = solve_ivp(OscillatorParams(1e-200, 4e-200, 1e-200, 1.0, 0.0))
        # sqrt(4mk - b^2) / (2m) = sqrt(15) / 2, with 4mk below the float range.
        assert sol.omega == pytest.approx(math.sqrt(15) / 2, rel=1e-14)
        assert sol.beta == pytest.approx(-0.5, rel=1e-15)

    def test_omega_outside_the_float_range_is_refused(self):
        # omega = sqrt(k/m) = 10^-350 is below the float range.
        with pytest.raises(ValueError, match="angular frequency 0.0"):
            solve_ivp(OscillatorParams(1, Fraction(1, 10**700), 0, 1, 0))
        with pytest.raises(ValueError, match="angular frequency inf"):
            solve_ivp(OscillatorParams(5e-324, 1e308, 0.0, 1.0, 0.0))

    def test_exact_ratios_past_the_float_range(self):
        # m, k and b leave the float range, but omega and beta do not.
        sol = solve_ivp(OscillatorParams(10**400, 10**400, 0, 1, 0))
        assert (sol.omega, sol.beta, sol.amplitude) == (1.0, 0.0, 1.0)
        sol = solve_ivp(OscillatorParams(Fraction(1, 10**400), 1, 0, 1, 0))
        assert sol.omega == pytest.approx(1e200, rel=1e-15)
        # 1 - b^2/(4mk) = 2e-30 - 1e-60 is exact; in floats the ratio
        # rounds to 1 and omega to 0.
        sol = solve_ivp(OscillatorParams(Fraction(1, 4), 1, 1 - Fraction(1, 10**30), 1, 0))
        assert sol.omega == pytest.approx(2 * math.sqrt(2) * 1e-15, rel=1e-14)
        assert sol.beta == pytest.approx(-2.0, rel=1e-15)

    def test_initial_state_past_the_float_range_is_refused(self):
        with pytest.raises(ValueError, match="initial displacement is past the float range"):
            solve_ivp(OscillatorParams(1, 1, 0, 10**400, 0))
        with pytest.raises(ValueError, match="initial velocity is past the float range"):
            solve_ivp(OscillatorParams(1, 1, 0, 0, -(10**400)))

    def test_rejects_non_underdamped(self):
        for b in (2, 3):
            with pytest.raises(ValueError, match="underdamped regime required"):
                solve_ivp(OscillatorParams(m=1, k=1, b=b, y0=1, y1=0))

    def test_params_validation(self):
        with pytest.raises(ValueError):
            OscillatorParams(m=-1, k=1, b=0, y0=0, y1=0)
        with pytest.raises(ValueError):
            OscillatorParams(m=1, k=0, b=0, y0=0, y1=0)
        with pytest.raises(ValueError):
            OscillatorParams(m=1, k=1, b=-1, y0=0, y1=0)

    @pytest.mark.parametrize("field", ["m", "k", "b", "y0", "y1"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_params_non_finite_rejected(self, field, value):
        values = {"m": 1, "k": 1, "b": 0, "y0": 0, "y1": 1, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be finite, got {value}$"):
            OscillatorParams(**values)


class TestEvaluate:
    def test_initial_condition(self):
        rng = random.Random(1)
        for _ in range(50):
            params = random_underdamped(rng)
            sol = solve_ivp(params)
            got = evaluate(sol, 0.0)
            assert got.y == pytest.approx(float(params.y0), abs=1e-12, rel=1e-12)

    def test_quarter_period_of_sine(self):
        sol = solve_ivp(OscillatorParams(m=1, k=1, b=0, y0=0, y1=1))
        assert evaluate(sol, math.pi / 2).y == pytest.approx(1.0, abs=1e-12)

    def test_undamped_envelope_constant(self):
        sol = solve_ivp(OscillatorParams(m=1, k=1, b=0, y0=0, y1=1))
        for t in (0.0, 1.0, 17.5):
            assert evaluate(sol, t).env_hi == sol.amplitude
            assert evaluate(sol, t).env_lo == -sol.amplitude

    def test_envelope_tangency(self):
        sol = solve_ivp(OscillatorParams(m=2, k=3, b=1, y0=1, y1=-0.5))
        # first time the sine hits +1
        t_star = (math.pi / 2 - sol.phase) / sol.omega
        if t_star < 0:
            t_star += 2 * math.pi / sol.omega
        got = evaluate(sol, t_star)
        assert got.y == pytest.approx(got.env_hi, rel=1e-12, abs=1e-12)

    def test_angle_past_the_float_range_is_refused(self):
        # omega = 1e150, so omega*t overflows at t = 5e299
        sol = solve_ivp(OscillatorParams(m=1, k=1e300, b=0, y0=0, y1=1))
        assert evaluate(sol, 1e157).env_hi == sol.amplitude
        with pytest.raises(ValueError, match=r"^the angle omega\*t \+ phase overflows the float range at t = 5e\+299$"):
            evaluate(sol, 5e299)

    def test_energy_decay_at_touch_points(self):
        sol = solve_ivp(OscillatorParams(m=1, k=4, b=0.6, y0=1, y1=0))
        t_star = (math.pi / 2 - sol.phase) / sol.omega
        while t_star < 0:
            t_star += math.pi / sol.omega
        touches = [abs(evaluate(sol, t_star + j * math.pi / sol.omega).y) for j in range(6)]
        assert all(a > b for a, b in zip(touches, touches[1:]))


class TestSample:
    def test_endpoints(self):
        sol = solve_ivp(OscillatorParams(m=1, k=1, b=0.1, y0=1, y1=0))
        rows = sample(sol, 3.0, 2)
        assert [r.t for r in rows] == [0.0, 3.0]

    def test_quarter_period_values(self):
        sol = solve_ivp(OscillatorParams(m=1, k=1, b=0, y0=0, y1=1))
        rows = sample(sol, 2 * math.pi, 5)
        expected = [0.0, 1.0, 0.0, -1.0, 0.0]
        for row, want in zip(rows, expected):
            assert row.y == pytest.approx(want, abs=1e-12)

    def test_envelope_bounds_every_row(self):
        rng = random.Random(2)
        for _ in range(20):
            sol = solve_ivp(random_underdamped(rng))
            for row in sample(sol, 5.0, 64):
                assert row.env_lo - 1e-12 <= row.y <= row.env_hi + 1e-12

    def test_times_past_half_the_float_range(self):
        # 1e308 * 2 overflows; the exact quotient 1e308 * 2 / 4 does not
        sol = solve_ivp(OscillatorParams(m=1, k=1, b=1, y0=1, y1=0))
        rows = sample(sol, 1e308, 5)
        assert [r.t for r in rows] == [0.0, 1e308 / 4, float(Fraction(1e308) / 2), float(Fraction(1e308) * 3 / 4), 1e308]
        assert [r.y for r in rows[1:]] == [0.0] * 4

    def test_times_below_the_overflow_unchanged(self):
        # each time is t_end * j / (n - 1), rounded twice, as before
        sol = solve_ivp(OscillatorParams(m=1, k=1, b=0.1, y0=1, y1=0))
        for t_end, n in [(10.0, 200), (2 * math.pi, 7), (1e307, 9), (0.3, 11)]:
            assert [r.t for r in sample(sol, t_end, n)] == [t_end * j / (n - 1) for j in range(n)]

    def test_validation(self):
        sol = solve_ivp(OscillatorParams(m=1, k=1, b=0, y0=0, y1=1))
        with pytest.raises(ValueError):
            sample(sol, 0.0, 5)
        with pytest.raises(ValueError):
            sample(sol, 1.0, 1)
        for t_end in (math.inf, math.nan):
            with pytest.raises(ValueError, match=f"t_end must be positive and finite, got {t_end}"):
                sample(sol, t_end, 5)


class TestAlgebraicIdentities:
    def test_amplitude_formula_equivalence(self):
        rng = random.Random(99)
        for _ in range(200):
            p = random_underdamped(rng)
            sol = solve_ivp(p)
            reference = amplitude_from_initial_conditions(
                float(p.m), float(p.k), float(p.b), float(p.y0), float(p.y1)
            )
            assert sol.amplitude == pytest.approx(reference, rel=1e-12, abs=1e-12)

    def test_phase_sin_cos_decomposition(self):
        rng = random.Random(5)
        for _ in range(100):
            sol = solve_ivp(random_underdamped(rng))
            assert sol.c1 == pytest.approx(
                sol.amplitude * math.sin(sol.phase), rel=1e-12, abs=1e-12
            )
            assert sol.c2 == pytest.approx(
                sol.amplitude * math.cos(sol.phase), rel=1e-12, abs=1e-12
            )

    def test_initial_velocity_by_richardson(self):
        rng = random.Random(6)
        h = 1e-5
        for _ in range(50):
            p = random_underdamped(rng)
            sol = solve_ivp(p)
            y0 = float(p.y0)

            def forward_slope(step):
                return (evaluate(sol, step).y - y0) / step

            refined = 2 * forward_slope(h / 2) - forward_slope(h)
            assert refined == pytest.approx(float(p.y1), abs=1e-6, rel=1e-6)

    def test_ode_residual_by_finite_differences(self):
        rng = random.Random(8)
        h = 1e-5
        for _ in range(50):
            p = random_underdamped(rng)
            sol = solve_ivp(p)
            m, k, b = float(p.m), float(p.k), float(p.b)
            t = rng.uniform(0.1, 3.0)
            y_minus = evaluate(sol, t - h).y
            y_0 = evaluate(sol, t).y
            y_plus = evaluate(sol, t + h).y
            first = (y_plus - y_minus) / (2 * h)
            second = (y_plus - 2 * y_0 + y_minus) / (h * h)
            residual = m * second + b * first + k * y_0
            assert abs(residual) < 1e-4 * (1 + sol.amplitude)
