import math
from fractions import Fraction

import pytest

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


def assert_angles_match(solutions, expected, tol):
    assert len(solutions) == len(expected)
    got = sorted((s.theta1, s.theta2) for s in solutions)
    for (g1, g2), (e1, e2) in zip(got, sorted(expected)):
        assert abs(g1 - e1) < tol
        assert abs(g2 - e2) < tol


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
        result = ik_solve(ArmSpec(1, 1), Target(2, 0), 1e-9)
        assert_angles_match(result.solutions, [(0.0, 0.0)], 1e-6)

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
        with pytest.raises(ValueError):
            ik_solve(ArmSpec(1, 1), Target(1, 1), 0.0)

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
