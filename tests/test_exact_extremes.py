"""Exact numbers from 10^-400 to 10^400 in magnitude, past the float range
both ways, at every public entry that takes numbers: each call returns or
refuses its input with a ValueError, and nothing else escapes it."""

import math
from fractions import Fraction

import hypothesis.strategies as st
from hypothesis import example, given, settings

from groebnerkit.ideal import univariate_real_roots
from groebnerkit.kinematics import ArmSpec, Target, ik_solve
from groebnerkit.oscillator import OscillatorParams, classify, solve_ivp
from groebnerkit.ring import Monomial, Polynomial

from strategies import CTX_T


def exact_numbers():
    """Ints and Fractions of either sign, zero included, from 10^-400 to
    10^400 in magnitude."""
    mantissas, exponents = st.integers(-999, 999), st.integers(0, 400)
    return st.one_of(
        st.builds(lambda m, e: m * 10**e, mantissas, exponents),
        st.builds(lambda m, e: Fraction(m, 10**e), mantissas, exponents),
        st.builds(Fraction, st.integers(-(10**400), 10**400), st.integers(1, 10**400)),
    )


def returned(call, *args):
    """What call returns, or None when it raises a ValueError."""
    try:
        return call(*args)
    except ValueError:
        return None


@settings(max_examples=40, deadline=None)
@given(exact_numbers(), exact_numbers(), exact_numbers(), exact_numbers(), exact_numbers())
@example(10**400, 10**400, 0, 1, 0)
def test_oscillator(m, k, b, y0, y1):
    assert returned(classify, m, k, b) in (None, "underdamped", "critical", "overdamped")
    params = returned(OscillatorParams, m, k, b, y0, y1)
    solution = params and returned(solve_ivp, params)
    if solution:
        assert 0 < solution.omega < math.inf and math.isfinite(solution.amplitude)


@settings(max_examples=40, deadline=None)
@given(exact_numbers(), exact_numbers(), exact_numbers(), exact_numbers(), exact_numbers())
def test_ik_solve(l1, l2, x, y, tol):
    arm, target = returned(ArmSpec, l1, l2), returned(Target, x, y)
    result = arm and target and returned(ik_solve, arm, target, tol)
    if result:
        assert all(s.residual <= 10 * tol for s in result.solutions)


@settings(max_examples=40, deadline=None)
@given(st.lists(exact_numbers(), min_size=1, max_size=5), exact_numbers() | st.floats())
@example([-(10**400), 1], 1e-9)
def test_univariate_real_roots(coefficients, tol):
    p = Polynomial(CTX_T, {Monomial((i,)): c for i, c in enumerate(coefficients)})
    roots = returned(univariate_real_roots, p, tol)
    if roots:
        assert roots == sorted(roots) and all(map(math.isfinite, roots))
