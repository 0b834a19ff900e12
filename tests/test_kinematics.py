import math
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, settings

from groebnerkit.kinematics import (
    ArmSpec,
    IKResult,
    JointSolution,
    Target,
    forward_kinematics,
    ik_solve,
    ik_system,
)
from groebnerkit.parse import format_polynomial, parse_polynomial
from groebnerkit.order import GRLEX
from groebnerkit.ring import VariableContext

CTX_IK = VariableContext(["c1", "s1", "c2", "s2"])


def law_of_cosines_ik(l1, l2, x, y, tol=1e-12):
    """Independent closed-form 2R inverse kinematics oracle."""
    r2 = x * x + y * y
    cos_t2 = (r2 - l1 * l1 - l2 * l2) / (2 * l1 * l2)
    if cos_t2 > 1 + tol or cos_t2 < -1 - tol:
        return []
    cos_t2 = max(-1.0, min(1.0, cos_t2))
    solutions = set()
    for sin_t2 in {math.sqrt(1 - cos_t2 * cos_t2), -math.sqrt(1 - cos_t2 * cos_t2)}:
        t2 = math.atan2(sin_t2, cos_t2)
        t1 = math.atan2(y, x) - math.atan2(l2 * sin_t2, l1 + l2 * cos_t2)
        if t1 <= -math.pi:
            t1 += 2 * math.pi
        if t1 > math.pi:
            t1 -= 2 * math.pi
        solutions.add((round(t1, 9), round(t2, 9)))
    return sorted(solutions)


def angle_gap(a, b):
    d = abs(a - b) % (2 * math.pi)
    return min(d, 2 * math.pi - d)


def assert_angles_match(solutions, expected, tol):
    """Same pose count, each expected pose within tol; angles modulo 2*pi,
    since pi and -pi + 1e-16 are the same joint angle."""
    assert len(solutions) == len(expected)
    for e1, e2 in expected:
        assert any(
            angle_gap(s.theta1, e1) < tol and angle_gap(s.theta2, e2) < tol
            for s in solutions
        )


class TestSystem:
    def test_first_polynomial(self):
        polys = ik_system(ArmSpec(1, 1), Target(1, 1))
        expected = parse_polynomial("c1 + c1*c2 - s1*s2 - 1", CTX_IK)
        assert polys[0] == expected

    def test_pythagorean_rows_are_target_independent(self):
        a = ik_system(ArmSpec(1, 1), Target(1, 1))
        b = ik_system(ArmSpec(1, 1), Target(-2, 5))
        assert a[2] == b[2] == parse_polynomial("c1^2 + s1^2 - 1", CTX_IK)
        assert a[3] == b[3] == parse_polynomial("c2^2 + s2^2 - 1", CTX_IK)

    def test_rational_inputs_exact(self):
        polys = ik_system(ArmSpec(Fraction(3, 2), 1), Target(Fraction(1, 3), 0))
        assert polys[0] == parse_polynomial(
            "3/2*c1 + c1*c2 - s1*s2 - 1/3", CTX_IK
        )

    def test_non_finite_inputs_rejected(self):
        for make in (
            lambda: ArmSpec(float("nan"), 1),
            lambda: ArmSpec(1, float("inf")),
            lambda: Target(float("inf"), 0),
            lambda: Target(0, float("nan")),
        ):
            with pytest.raises(ValueError, match="must be finite"):
                make()
        # only floats are checked; an exact value too large for a float is fine
        assert Target(Fraction(10**400), 0).x == 10**400

    def test_arm_validation(self):
        with pytest.raises(ValueError):
            ArmSpec(0, 1)
        with pytest.raises(ValueError):
            ArmSpec(1, -2)


class TestSolve:
    def test_two_elbow_branches(self):
        result = ik_solve(ArmSpec(1, 1), Target(1, 1), 1e-9)
        assert result.diagnostic is None
        expected = [(0.0, math.pi / 2), (math.pi / 2, -math.pi / 2)]
        assert_angles_match(result.solutions, expected, 1e-6)
        for s in result.solutions:
            assert s.residual < 1e-6

    def test_full_extension_single_solution(self):
        for arm, target, pose in [
            (ArmSpec(1, 1), Target(2, 0), (0.0, 0.0)),
            (ArmSpec(2, 1), Target(3, 0), (0.0, 0.0)),
            (ArmSpec(1, 1), Target(0, 2), (math.pi / 2, 0.0)),
        ]:
            result = ik_solve(arm, target, 1e-9)
            assert_angles_match(result.solutions, [pose], 1e-6)

    def test_folded_on_inner_boundary_single_solution(self):
        result = ik_solve(ArmSpec(2, 1), Target(1, 0), 1e-9)
        assert result.diagnostic is None
        assert_angles_match(result.solutions, [(0.0, math.pi)], 1e-6)

    def test_unreachable(self):
        result = ik_solve(ArmSpec(1, 1), Target(3, 0), 1e-9)
        assert result.solutions == ()
        assert result.diagnostic == "unreachable"

    def test_inside_inner_boundary_unreachable(self):
        result = ik_solve(ArmSpec(2, 1), Target(0.2, 0), 1e-9)
        assert result.diagnostic == "unreachable"

    def test_folded_arm_continuum_rejected(self):
        with pytest.raises(ValueError, match="solution set not finite"):
            ik_solve(ArmSpec(1, 1), Target(0, 0), 1e-9)

    def test_bad_tolerance(self):
        for tol in (0.0, -1e-9, math.inf, math.nan):
            with pytest.raises(ValueError, match="tol must be positive and finite"):
                ik_solve(ArmSpec(1, 1), Target(1, 1), tol)

    def test_float_target_on_outer_circle_unreachable(self):
        # snaps 1.7e-13 outside the circle, where the exact algebra has no pose
        target = Target(2 * math.cos(2.0), 2 * math.sin(2.0))
        result = ik_solve(ArmSpec(1, 1), target)
        assert result.solutions == ()
        assert result.diagnostic == "unreachable"

    def test_solutions_sorted_by_theta1(self):
        result = ik_solve(ArmSpec(1, 1), Target(1, 1), 1e-9)
        thetas = [s.theta1 for s in result.solutions]
        assert thetas == sorted(thetas)


class TestAgainstOracle:
    def test_rational_grid_targets(self):
        arm = ArmSpec(1, 1)
        tol = 1e-9
        targets = [
            (0.5, 0.5),
            (1.25, 0.5),
            (0.25, -1.5),
            (-1.0, 0.75),
            (-0.5, -1.25),
            (1.75, 0.25),
            (0.125, 1.0),
            (-1.5, -0.5),
        ]
        for x, y in targets:
            result = ik_solve(arm, Target(x, y), tol)
            oracle = law_of_cosines_ik(1.0, 1.0, x, y)
            assert result.diagnostic is None
            assert_angles_match(result.solutions, oracle, 10 * tol + 1e-7)
            for s in result.solutions:
                fx, fy = forward_kinematics(arm, s.theta1, s.theta2)
                assert abs(fx - x) + abs(fy - y) < 10 * tol
                # recovered cosines/sines stay on the unit circle
                assert abs(math.cos(s.theta1) ** 2 + math.sin(s.theta1) ** 2 - 1) < 1e-12

    def test_unequal_links(self):
        arm = ArmSpec(2, 1)
        for x, y in [(2.5, 0.5), (1.5, 1.5), (-2.0, 1.0)]:
            result = ik_solve(arm, Target(x, y), 1e-9)
            oracle = law_of_cosines_ik(2.0, 1.0, x, y)
            assert_angles_match(result.solutions, oracle, 1e-6)

    def test_float_target_next_to_a_small_fraction(self):
        # x snaps to -499999/999999, 2.4e-7 from the float target
        x, y = -0.4999997438596893, -1.3286535499664534
        result = ik_solve(ArmSpec(2, 1), Target(x, y))
        assert result.diagnostic is None
        assert_angles_match(result.solutions, law_of_cosines_ik(2.0, 1.0, x, y), 1e-6)

    @settings(max_examples=40, deadline=None)
    @given(
        l1=st.fractions(Fraction(1, 4), 3, max_denominator=6),
        l2=st.fractions(Fraction(1, 4), 3, max_denominator=6),
        triple=st.sampled_from([(3, 4, 5), (5, 12, 13), (8, 15, 17), (20, 21, 29)]),
        signs=st.tuples(st.sampled_from([1, -1]), st.sampled_from([1, -1])),
        swap=st.booleans(),
        weight=st.fractions(0, 1, max_denominator=12),
    )
    def test_rational_targets_inside_and_on_both_boundaries(
        self, l1, l2, triple, signs, swap, weight
    ):
        # rho*(a/c, b/c) has the rational radius rho: weight 0 and 1 put
        # it exactly on the inner and outer circles.
        a, b, c = triple
        if swap:
            a, b = b, a
        inner, outer = abs(l1 - l2), l1 + l2
        rho = inner + (outer - inner) * weight
        assume(rho > 0)  # the folded origin is a continuum of poses
        x, y = rho * signs[0] * a / c, rho * signs[1] * b / c
        arm, tol = ArmSpec(l1, l2), 1e-9
        result = ik_solve(arm, Target(x, y), tol)
        assert result.diagnostic is None
        assert_angles_match(result.solutions, law_of_cosines_ik(l1, l2, x, y), 1e-6)
        for s in result.solutions:
            fx, fy = forward_kinematics(arm, s.theta1, s.theta2)
            assert abs(fx - x) + abs(fy - y) <= 10 * tol

    def test_solution_count_inside_annulus(self):
        # strictly inside: two distinct elbow branches
        result = ik_solve(ArmSpec(1, 1), Target(1.2, 0.3), 1e-9)
        assert len(result.solutions) == 2

    def test_angles_in_half_open_range(self):
        for x, y in [(1, 1), (-1.5, 0.2), (0.3, -1.1)]:
            result = ik_solve(ArmSpec(1, 1), Target(x, y), 1e-9)
            for s in result.solutions:
                assert -math.pi < s.theta1 <= math.pi
                assert -math.pi < s.theta2 <= math.pi
