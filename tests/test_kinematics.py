import hashlib
import itertools
import math
import random
from decimal import Decimal
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import assume, example, given, settings

from groebnerkit import kinematics
from groebnerkit.division import divide
from groebnerkit.groebner import GroebnerBasis, groebner_basis, reduce_basis
from groebnerkit.ideal import is_member
from groebnerkit.kinematics import (
    IK_VARIABLES,
    ArmSpec,
    IKResult,
    JointSolution,
    Target,
    forward_kinematics,
    ik_solve,
    ik_system,
)
from groebnerkit.parse import format_polynomial, parse_polynomial, parse_system
from groebnerkit.order import GRLEX, LEX
from groebnerkit.ring import Polynomial, VariableContext

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


class TestReader:
    @settings(max_examples=500)
    @given(value=st.floats(allow_nan=False, allow_infinity=False))
    @example(value=5e-324)
    @example(value=-0.0)
    @example(value=1e16)
    @example(value=1.7976931348623157e308)
    @example(value=1e-300)
    @example(value=0.30000000000000004)
    def test_float_reads_back_as_itself(self, value):
        # The integer pair is the shortest decimal that reads back as the
        # float: its digits over a power of ten.
        n, d = kinematics._pair(value)
        assert type(n) is int and type(d) is int
        assert d > 0 and 10 ** (len(str(d)) - 1) == d
        assert Fraction(n, d) == Fraction(repr(value))
        exact = kinematics._exact(value)
        assert isinstance(exact, Fraction)
        assert exact == Fraction(repr(value)) and float(exact) == value

    @given(value=st.one_of(st.integers(), st.fractions()))
    @example(value=True)
    @example(value=10**400)
    @example(value=-(10**400))
    @example(value=Fraction(-(10**400), 3**300))
    def test_ints_and_fractions_pass_unchanged(self, value):
        assert kinematics._pair(value) == (value.numerator, value.denominator)
        exact = kinematics._exact(value)
        assert isinstance(exact, Fraction) and exact == value

    @pytest.mark.parametrize("text", ["0.1", "-2.5E-7", "1e400", "3.14159265358979323846264338327950288", "-0"])
    def test_decimal_reads_as_fraction_reads_it(self, text):
        value = Decimal(text)
        assert Fraction(*kinematics._pair(value)) == Fraction(value)
        assert kinematics._exact(value) == Fraction(value)

    def test_float_reads_as_the_decimal_it_prints(self):
        assert kinematics._exact(0.1) == Fraction(1, 10)
        assert kinematics._exact(1e-300) == Fraction(1, 10**300)
        assert kinematics._exact(1 / 3) == Fraction(3333333333333333, 10**16)
        assert kinematics._exact(2.5e-1) == Fraction(1, 4)
        assert kinematics._exact(1e16) == 10**16
        assert kinematics._exact(0.30000000000000004) == Fraction(30000000000000004, 10**17)

    def test_cleared_values_share_the_lcm_of_their_denominators(self):
        assert kinematics._cleared(0.25, 1, Fraction(1, 3), 1e-05) == ([75000, 300000, 100000, 3], 300000)
        assert kinematics._cleared(True, 1e16) == ([1, 10**16], 1)


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

    def test_a_result_iterates_its_solutions(self):
        result = ik_solve(ArmSpec(1, 1), Target(1, 1), 1e-9)
        assert len(result.solutions) == 2
        assert list(result) == list(result.solutions)
        assert list(ik_solve(ArmSpec(1, 1), Target(3, 0), 1e-9)) == []

    def test_unreachable(self):
        result = ik_solve(ArmSpec(1, 1), Target(3, 0), 1e-9)
        assert result.solutions == ()
        assert result.diagnostic == "unreachable"

    def test_inside_inner_boundary_unreachable(self):
        result = ik_solve(ArmSpec(2, 1), Target(0.2, 0), 1e-9)
        assert result.diagnostic == "unreachable"
        for arm in (ArmSpec(2, 1), ArmSpec(Fraction(3, 2), Fraction(1, 2)), ArmSpec(0.5, 0.75)):
            assert ik_solve(arm, Target(0, 0)).diagnostic == "unreachable"

    def test_folded_arm_continuum_rejected(self):
        with pytest.raises(ValueError, match="solution set not finite"):
            ik_solve(ArmSpec(1, 1), Target(0, 0), 1e-9)
        # also for rational and float links; a float target next to the
        # origin is read as its decimal, which is off it
        for link in (Fraction(3, 2), 0.75):
            with pytest.raises(ValueError, match="solution set not finite"):
                ik_solve(ArmSpec(link, link), Target(0.0, -0.0))
            result = ik_solve(ArmSpec(link, link), Target(1e-9, 0), 1e-9)
            assert result.diagnostic is None and len(result.solutions) == 2
            assert all(s.residual <= 1e-8 for s in result.solutions)

    @pytest.mark.parametrize("l1, l2, x, y", [(1e-300, 1, 1, 0), (1, 1e-9, 0.6, -0.8), (2e-7, 1.5, 0, 1.5)])
    def test_tiny_link_keeps_two_poses(self, l1, l2, x, y):
        # a positive float link is read as its decimal, never as zero
        result = ik_solve(ArmSpec(l1, l2), Target(x, y), 1e-9)
        assert result.diagnostic is None and len(result.solutions) == 2
        assert all(s.residual <= 1e-8 for s in result.solutions)
        assert ik_solve(ArmSpec(l1, l2), Target(x / 2, y / 2)).diagnostic == "unreachable"

    def test_bad_tolerance(self):
        for tol in (0.0, -1e-9, math.inf, math.nan):
            with pytest.raises(ValueError, match="tol must be positive and finite"):
                ik_solve(ArmSpec(1, 1), Target(1, 1), tol)

    def test_tolerance_past_the_float_range_is_refused(self):
        for tol in (Fraction(10**400), 10**400):
            with pytest.raises(ValueError, match="^tol must be positive and finite$"):
                ik_solve(ArmSpec(1, 1), Target(1, Fraction(1, 2)), tol)

    def test_float_target_on_outer_circle_unreachable(self):
        # its decimal has r^2 = 4 + 7.7e-17, where the exact algebra has no pose
        target = Target(2 * math.cos(2.0), 2 * math.sin(2.0))
        result = ik_solve(ArmSpec(1, 1), target)
        assert result.solutions == ()
        assert result.diagnostic == "unreachable"

    def test_float_target_just_past_outer_circle_has_no_near_fold_poses(self):
        # r^2 = 4 + 2.8e-16: out of reach, not two poses with theta2 near 0
        target = Target(2 * math.cos(0.0471), 2 * math.sin(0.0471))
        result = ik_solve(ArmSpec(1, 1), target)
        assert result.solutions == ()
        assert result.diagnostic == "unreachable"

    def test_decimal_target_on_outer_circle_keeps_its_pose(self):
        # 1.2^2 + 1.6^2 = 4 in decimals; in the floats' binary values, 4 + 1.8e-16
        result = ik_solve(ArmSpec(1, 1), Target(1.2, 1.6), 1e-9)
        assert_angles_match(result.solutions, [(math.atan2(1.6, 1.2), 0.0)], 1e-6)

    def test_float_solves_as_the_decimal_it_prints(self):
        for values in [(2.5e-1, 1, 0.75, 5e-1), (1, 1, 1e-05, 1.25), (1, 1, 0.30000000000000004, 1.2e0)]:
            decimals = [Fraction(repr(v)) if isinstance(v, float) else v for v in values]
            result = ik_solve(ArmSpec(*values[:2]), Target(*values[2:]))
            assert len(result.solutions) == 2
            assert result == ik_solve(ArmSpec(*decimals[:2]), Target(*decimals[2:]))

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
        # x is 2.4e-7 from -499999/999999; read as its decimal, it stays put
        x, y = -0.4999997438596893, -1.3286535499664534
        tol = 1e-9
        result = ik_solve(ArmSpec(2, 1), Target(x, y), tol)
        assert result.diagnostic is None
        assert_angles_match(result.solutions, law_of_cosines_ik(2.0, 1.0, x, y), 1e-6)
        for s in result.solutions:
            assert s.residual <= 10 * tol

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


# ---- the four members of the parametric lex basis -----------------------

# The link lengths and the target as variables too, after the joint block.
CTX_PARAM = VariableContext(["c1", "s1", "c2", "s2", "l1", "l2", "x", "y"])
PARAMETRIC_SYSTEM = [
    "l1*c1 + l2*(c1*c2 - s1*s2) - x",
    "l1*s1 + l2*(s1*c2 + c1*s2) - y",
    "c1^2 + s1^2 - 1",
    "c2^2 + s2^2 - 1",
]
# The members that, specialised and interreduced, give the basis ik_solve
# builds: each with its leading monomial and leading coefficient in the
# (c1, s1, c2, s2) block. The last two are the two choices for c1, as x
# or y vanishes.
PARAMETRIC_MEMBERS = [
    ("l1^2*l2^2*s2^2 + 1/4*(x^2 + y^2 - l1^2 - l2^2)^2 - l1^2*l2^2", (0, 0, 0, 2), "l1^2*l2^2"),
    ("l1*l2*c2 - 1/2*(x^2 + y^2 - l1^2 - l2^2)", (0, 0, 1, 0), "l1*l2"),
    ("(x^2 + y^2)*s1 - l2*y*c2 + l2*x*s2 - l1*y", (0, 1, 0, 0), "x^2 + y^2"),
    ("x*c1 + y*s1 - l2*c2 - l1", (1, 0, 0, 0), "x"),
    ("y*c1 - x*s1 - l2*s2", (1, 0, 0, 0), "y"),
]
IK_SWEEP_ARMS = [(1, 1), (2, 1), (Fraction(3, 2), Fraction(1, 2))]


@pytest.fixture(scope="module")
def parametric_basis():
    return groebner_basis(parse_system(PARAMETRIC_SYSTEM, CTX_PARAM), LEX)


def block_lead(p):
    """p's leading monomial in the (c1, s1, c2, s2) block under lex, and
    its coefficient there, a polynomial in l1, l2, x, y."""
    top = max(m[:4] for m in p.terms)
    return top, Polynomial(CTX_PARAM, [((0,) * 4 + m[4:], c) for m, c in p.terms.items() if m[:4] == top])


def specialise(p, l1, l2, x, y):
    """p over (c1, s1, c2, s2) with the given rationals for l1, l2, x, y."""
    values = (l1, l2, x, y)
    return Polynomial(
        CTX_IK,
        [(m[:4], c * math.prod(v**e for v, e in zip(values, m[4:]))) for m, c in p.terms.items()],
    )


def seeded_rationals(count):
    """Arms and targets of small rationals, half of them on an axis;
    never the origin."""
    rng = random.Random(20261018)

    def fraction():
        return Fraction(rng.randint(-40, 40), rng.randint(1, 12))

    while count:
        l1, l2 = abs(fraction()) + Fraction(1, 8), abs(fraction()) + Fraction(1, 8)
        x, y = fraction(), fraction()
        x, y = rng.choice([(x, y), (x, y), (0, y), (x, 0)])
        if x or y:
            count -= 1
            yield l1, l2, Fraction(x), Fraction(y)


class TestParametricBasis:
    def test_members_belong_to_the_parametric_basis(self, parametric_basis):
        assert len(parametric_basis) == 20
        for text, _, _ in PARAMETRIC_MEMBERS:
            member = parse_polynomial(text, CTX_PARAM)
            assert is_member(member, parametric_basis)
            # each is already monic in full lex, so it is a basis member itself
            assert member in parametric_basis.generators

    def test_block_leading_coefficients(self):
        for text, monomial, coefficient in PARAMETRIC_MEMBERS:
            top, lead = block_lead(parse_polynomial(text, CTX_PARAM))
            assert top == monomial
            assert lead == parse_polynomial(coefficient, CTX_PARAM)

    def test_ik_solve_builds_the_members_specialised(self):
        # Interreduced, the specialised members give ik_solve's closed
        # form term by term, with either member led by c1.
        members = [parse_polynomial(text, CTX_PARAM) for text, _, _ in PARAMETRIC_MEMBERS]
        compared = 0
        for l1, l2, x, y in seeded_rationals(200):
            for c1_member, c1_lead in ((members[3], x), (members[4], y)):
                if not c1_lead:
                    continue
                chosen = [specialise(m, l1, l2, x, y) for m in members[:3] + [c1_member]]
                reduced = reduce_basis(GroebnerBasis(tuple(chosen), LEX, reduced=False))
                assert list(reduced.generators) == kinematics._members(l1, l2, x, y)
                compared += 1
        assert compared > 300

    def test_basis_is_tagged_reduced_and_is_reduced(self):
        for l1, l2, x, y in seeded_rationals(50):
            basis = GroebnerBasis(tuple(kinematics._members(l1, l2, x, y)), LEX, reduced=True)
            assert reduce_basis(basis) == basis


def named_targets(l1, l2):
    """Exact and float targets on the two boundary circles, on both axes,
    at r^2 = l1^2 + l2^2, r = l1 and r = l2. Some are out of reach."""
    inner, outer, middle = abs(l1 - l2), l1 + l2, (abs(l1 - l2) + l1 + l2) / 2
    exact = [
        (outer, 0), (outer * Fraction(3, 5), outer * Fraction(4, 5)), (0, -outer),
        (-inner, 0), (inner * Fraction(4, 5), -inner * Fraction(3, 5)),
        (0, middle), (0, -middle), (middle, 0), (-middle, 0),
        (l1, l2), (l2, -l1),
        (l1 * Fraction(3, 5), l1 * Fraction(4, 5)), (0, l1),
        (l2, 0), (-l2 * Fraction(4, 5), l2 * Fraction(3, 5)),
    ]
    floats = [(radius * math.cos(phi), radius * math.sin(phi))
              for radius in map(float, (outer, inner, l1, l2, math.sqrt(l1 * l1 + l2 * l2)))
              for phi in (0.0, math.pi / 2, 2.0, -1.0)]
    return [(Fraction(x), Fraction(y)) for x, y in exact] + floats


def sweep_targets(per_arm):
    """Seeded targets inside the annulus of each ik-sweep arm, alternately
    float and rational, and the named ones."""
    rng = random.Random(7)
    for l1, l2 in IK_SWEEP_ARMS:
        inner, outer = abs(l1 - l2), l1 + l2
        for k in range(per_arm):
            radius = float(inner) + float(outer - inner) * rng.random()
            phi = rng.uniform(-math.pi, math.pi)
            x, y = radius * math.cos(phi), radius * math.sin(phi)
            if k % 2:
                x, y = Fraction(x).limit_denominator(97), Fraction(y).limit_denominator(97)
            yield l1, l2, x, y
        for x, y in named_targets(l1, l2):
            yield l1, l2, x, y


class TestSpecialisedBasis:
    def test_equals_direct_completion(self):
        compared = 0
        for l1, l2, x, y in sweep_targets(140):
            sl1, sl2, sx, sy = map(kinematics._exact, (l1, l2, x, y))
            r2 = sx * sx + sy * sy
            if not (sl1 - sl2) ** 2 <= r2 <= (sl1 + sl2) ** 2 or not r2:
                continue
            direct = groebner_basis(ik_system(ArmSpec(l1, l2), Target(x, y)), LEX)
            specialised = GroebnerBasis(tuple(kinematics._members(sl1, sl2, sx, sy)), LEX, reduced=True)
            assert [g.terms for g in specialised] == [g.terms for g in direct], (l1, l2, x, y)
            compared += 1
        assert compared >= 400

    def test_fixed_polynomials_survive_a_sweep(self):
        fixed = [kinematics._C1, kinematics._S1, kinematics._C2, kinematics._S2,
                 kinematics._COS12, kinematics._SIN12, *kinematics._CIRCLES]
        before = [list(p.terms.items()) for p in fixed]
        solved = 0
        for l1, l2, x, y in sweep_targets(60):
            try:
                solved += len(ik_solve(ArmSpec(l1, l2), Target(x, y)).solutions)
            except ValueError:
                pass  # the folded arm of equal links at the origin
        assert solved >= 300
        assert [list(p.terms.items()) for p in fixed] == before
        assert all(p.context.names == IK_VARIABLES for p in fixed)

    def test_system_equals_the_system_written_from_scratch(self):
        ctx = VariableContext(IK_VARIABLES)
        c1, s1, c2, s2 = (Polynomial.variable(ctx, n) for n in IK_VARIABLES)
        for l1, l2, x, y in seeded_rationals(200):
            expected = [
                l1 * c1 + l2 * (c1 * c2 - s1 * s2) - x,
                l1 * s1 + l2 * (s1 * c2 + c1 * s2) - y,
                c1 * c1 + s1 * s1 - 1,
                c2 * c2 + s2 * s2 - 1,
            ]
            assert ik_system(ArmSpec(l1, l2), Target(x, y)) == expected
            assert kinematics._system(l1, l2, x, y) == expected

    def test_system_reduces_to_zero_modulo_the_members(self):
        # The proof below, seen at seeded targets: divided by the members,
        # each system polynomial leaves no remainder.
        checked = 0
        for target in itertools.chain(seeded_rationals(100), sweep_targets(20)):
            l1, l2, x, y = map(kinematics._exact, target)
            if not (x or y):
                continue  # the closed form divides by r^2
            members = kinematics._members(l1, l2, x, y)
            for f in kinematics._system(l1, l2, x, y):
                assert not divide(f, members, LEX).remainder, target
            checked += 1
        assert checked >= 250

    def test_ik_solve_lifts_zero_the_members(self, monkeypatch):
        # ik_solve isolates the roots of the first member and lifts each
        # through the other three, all read off one closed form, as
        # integers over one denominator: at every pose it lifts, those
        # three vanish exactly, and so does the first where the root is
        # exact (theta2 a multiple of pi/2).
        eliminants, poses = [], []
        roots, lift = kinematics.univariate_real_roots, kinematics._lift
        monkeypatch.setattr(kinematics, "univariate_real_roots", lambda p, tol: eliminants.append(p) or roots(p, tol))
        monkeypatch.setattr(kinematics, "_lift", lambda form, root: poses.append(lift(form, root)) or poses[-1])
        lifted = exact = 0
        for target in sweep_targets(40):
            eliminants.clear()
            poses.clear()
            try:
                ik_solve(ArmSpec(*target[:2]), Target(*target[2:]))
            except ValueError:
                continue  # the folded arm of equal links at the origin
            if not eliminants:
                continue  # out of reach
            members = kinematics._members(*map(kinematics._exact, target))
            assert eliminants == members[:1]
            for *numerators, denominator in poses:
                assert denominator > 0
                values = [value_at(m, [Fraction(n, denominator) for n in numerators]) for m in members]
                assert values[1:] == [0, 0, 0], target
                exact += values[0] == 0
                lifted += 1
        assert lifted >= 300 and exact >= 20


def value_at(p, point):
    """p at a point, exactly."""
    return sum(c * math.prod(v**e for v, e in zip(point, m)) for m, c in p.terms.items())


# ---- the closed form, proved once over Q[l1, l2, x, y] ------------------

# Each member of kinematics._members with its denominator cleared, and
# that denominator: M_j = d_j * m_j.
CLEARED_MEMBERS = [
    ("4*l1^2*l2^2*s2^2 + (x^2 + y^2 - l1^2 - l2^2)^2 - 4*l1^2*l2^2", "4*l1^2*l2^2"),
    ("2*l1*l2*c2 - (x^2 + y^2 - l1^2 - l2^2)", "2*l1*l2"),
    ("2*l1*(x^2 + y^2)*s1 - (x^2 + y^2 + l1^2 - l2^2)*y + 2*l1*l2*x*s2", "2*l1*(x^2 + y^2)"),
    ("2*l1*(x^2 + y^2)*c1 - (x^2 + y^2 + l1^2 - l2^2)*x - 2*l1*l2*y*s2", "2*l1*(x^2 + y^2)"),
]
# k_i * F_i = sum_j a_ij * M_j for the PARAMETRIC_SYSTEM polynomials F_i:
# k_i, then a_i1 .. a_i4.
SYSTEM_FROM_MEMBERS = [
    ("4*l1^2*(x^2 + y^2)",
     ["x", "2*l1*(x^2 + y^2)*c1", "-2*l1*l2*s2", "x^2 + y^2 + l1^2 - l2^2"]),
    ("4*l1^2*(x^2 + y^2)",
     ["y", "2*l1*(x^2 + y^2)*s1", "x^2 + y^2 + l1^2 - l2^2", "2*l1*l2*s2"]),
    ("4*l1^2*(x^2 + y^2)^2",
     ["x^2 + y^2", "0",
      "2*l1*(x^2 + y^2)*s1 + (x^2 + y^2 + l1^2 - l2^2)*y - 2*l1*l2*x*s2",
      "2*l1*(x^2 + y^2)*c1 + (x^2 + y^2 + l1^2 - l2^2)*x + 2*l1*l2*y*s2"]),
    ("4*l1^2*l2^2",
     ["1", "2*l1*l2*c2 + x^2 + y^2 - l1^2 - l2^2", "0", "0"]),
]
# M_j = sum_i b_ji * F_i: b_j1 .. b_j4. The second is the law of cosines
# from |(x, y)|^2; the first follows from it and the unit circle in s2,
# the last two from Cramer's rule on F_1 and F_2.
MEMBERS_FROM_SYSTEM = [
    ["-(2*l1*l2*c2 + x^2 + y^2 - l1^2 - l2^2)*(l1*c1 + l2*(c1*c2 - s1*s2) + x)",
     "-(2*l1*l2*c2 + x^2 + y^2 - l1^2 - l2^2)*(l1*s1 + l2*(s1*c2 + c1*s2) + y)",
     "(2*l1*l2*c2 + x^2 + y^2 - l1^2 - l2^2)*(l1^2 + 2*l1*l2*c2 + l2^2*(c2^2 + s2^2))",
     "(2*l1*l2*c2 + x^2 + y^2 - l1^2 - l2^2)*l2^2 + 4*l1^2*l2^2"],
    ["l1*c1 + l2*(c1*c2 - s1*s2) + x",
     "l1*s1 + l2*(s1*c2 + c1*s2) + y",
     "-(l1^2 + 2*l1*l2*c2 + l2^2*(c2^2 + s2^2))",
     "-l2^2"],
    ["-2*l1*l2*s2 + (y - 2*l1*s1)*(l1*c1 + l2*(c1*c2 - s1*s2) + x)",
     "2*l1*(l1 + l2*c2) + (y - 2*l1*s1)*(l1*s1 + l2*(s1*c2 + c1*s2) + y)",
     "-(y - 2*l1*s1)*(l1^2 + 2*l1*l2*c2 + l2^2*(c2^2 + s2^2))",
     "-l2^2*y"],
    ["2*l1*(l1 + l2*c2) + (x - 2*l1*c1)*(l1*c1 + l2*(c1*c2 - s1*s2) + x)",
     "2*l1*l2*s2 + (x - 2*l1*c1)*(l1*s1 + l2*(s1*c2 + c1*s2) + y)",
     "-(x - 2*l1*c1)*(l1^2 + 2*l1*l2*c2 + l2^2*(c2^2 + s2^2))",
     "-l2^2*x"],
]


def combination(cofactors, polynomials):
    return sum((parse_polynomial(c, CTX_PARAM) * p for c, p in zip(cofactors, polynomials)),
               Polynomial.zero(CTX_PARAM))


def system_from_members(members):
    """For each system polynomial F_i: k_i * F_i == sum_j a_ij * M_j."""
    system = parse_system(PARAMETRIC_SYSTEM, CTX_PARAM)
    return [parse_polynomial(k, CTX_PARAM) * f == combination(cofactors, members)
            for f, (k, cofactors) in zip(system, SYSTEM_FROM_MEMBERS)]


class TestClosedFormProof:
    """The members of kinematics._members generate the ideal of the
    system at every target with l1*l2*r^2 != 0, and are its reduced lex
    basis there; proved once, over Q[l1, l2, x, y].

    Write F_i for the system (PARAMETRIC_SYSTEM), m_j for the monic
    members and M_j = d_j * m_j for the members with their denominators
    d_j cleared (CLEARED_MEMBERS): 4*l1^2*l2^2, 2*l1*l2, 2*l1*r^2 and
    2*l1*r^2. These identities hold in Q[c1, s1, c2, s2, l1, l2, x, y]:

        k_i * F_i = sum_j a_ij * M_j,    M_j = sum_i b_ji * F_i,

    where each k_i is a product of powers of 2, l1, l2 and r^2. Putting
    rationals in for l1, l2, x and y is a ring homomorphism, so both hold
    at every target. Where l1*l2*r^2 != 0 every k_i and d_j is a nonzero
    rational: dividing by k_i puts each F_i in the ideal of the m_j, and
    dividing by d_j puts each m_j in the ideal of the F_i. The two ideals
    are equal.

    Under lex c1 > s1 > c2 > s2 the m_j lead with s2^2, c2, s1 and c1,
    which are pairwise coprime, so every S-polynomial of two of them
    reduces to zero (Buchberger's product criterion) and they are a
    Groebner basis of that ideal. Each is monic, and their tails hold
    only constants and s2, which no leading monomial divides: the basis
    is reduced, so it is the ideal's one reduced lex basis.
    """

    def test_cleared_members_are_the_closed_form(self):
        cleared = [(parse_polynomial(m, CTX_PARAM), parse_polynomial(d, CTX_PARAM)) for m, d in CLEARED_MEMBERS]
        for l1, l2, x, y in seeded_rationals(100):
            members = kinematics._members(l1, l2, x, y)
            for (m, d), member in zip(cleared, members):
                assert specialise(m, l1, l2, x, y) == specialise(d, l1, l2, x, y) * member

    def test_system_is_a_combination_of_the_members(self):
        members = [parse_polynomial(m, CTX_PARAM) for m, _ in CLEARED_MEMBERS]
        assert system_from_members(members) == [True] * 4

    def test_members_are_combinations_of_the_system(self):
        system = parse_system(PARAMETRIC_SYSTEM, CTX_PARAM)
        for (member, _), cofactors in zip(CLEARED_MEMBERS, MEMBERS_FROM_SYSTEM):
            assert parse_polynomial(member, CTX_PARAM) == combination(cofactors, system)

    def test_a_corrupted_member_breaks_the_identity(self):
        # c2 - cos2 + 1/7 in place of c2 - cos2: cleared, M_2 + 2*l1*l2/7
        members = [parse_polynomial(m, CTX_PARAM) for m, _ in CLEARED_MEMBERS]
        members[1] = members[1] + parse_polynomial("2/7*l1*l2", CTX_PARAM)
        assert system_from_members(members) == [False, False, True, False]  # F_3 needs no M_2
        for l1, l2, x, y in seeded_rationals(20):
            s2_squared, c2, s1, c1 = kinematics._members(l1, l2, x, y)
            corrupted = [s2_squared, c2 + Fraction(1, 7), s1, c1]
            assert any(divide(f, corrupted, LEX).remainder for f in kinematics._system(l1, l2, x, y))


# ---- arms of every size, and the floor of tol ---------------------------

SCALES = [10.0**k for k in range(-3, 7)]


def scaled_targets(scales, per_scale):
    """Seeded float arms of links between a fifth of the scale and the
    scale, and float targets in the annulus, uniform in radius."""
    rng = random.Random(20261019)
    for scale in scales:
        for _ in range(per_scale):
            l1, l2 = scale * rng.uniform(0.5, 1), scale * rng.uniform(0.2, 1)
            inner, outer = abs(l1 - l2), l1 + l2
            radius = inner + (outer - inner) * rng.random()
            phi = rng.uniform(-math.pi, math.pi)
            yield l1, l2, radius * math.cos(phi), radius * math.sin(phi)


def strictly_inside(l1, l2, x, y):
    """The target's rational lies strictly inside the arm's annulus."""
    el1, el2, ex, ey = map(kinematics._exact, (l1, l2, x, y))
    return (el1 - el2) ** 2 < ex * ex + ey * ey < (el1 + el2) ** 2


class TestScale:
    def test_every_scale_keeps_both_poses(self):
        tol = 1e-9
        swept = 0
        for l1, l2, x, y in scaled_targets(SCALES, 30):
            if not strictly_inside(l1, l2, x, y):
                continue
            result = ik_solve(ArmSpec(l1, l2), Target(x, y), tol)
            assert_angles_match(result.solutions, law_of_cosines_ik(l1, l2, x, y), 1e-6)
            for s in result.solutions:
                assert s.residual <= 10 * tol
            swept += 1
        assert swept >= 280

    def test_tol_at_the_floor_keeps_both_poses(self):
        # Exact arms and targets, the decimals of the seeded floats.
        swept = 0
        for l1, l2, x, y in scaled_targets([10.0**k for k in range(-3, 10, 2)], 15):
            l1, l2, x, y = map(kinematics._exact, (l1, l2, x, y))
            if not strictly_inside(l1, l2, x, y):
                continue
            floor = 2**-52 * max(1.0, float(l1 + l2))
            result = ik_solve(ArmSpec(l1, l2), Target(x, y), floor)
            assert len(result.solutions) == 2, (l1, l2, x, y)
            with pytest.raises(ValueError, match="below the floor"):
                ik_solve(ArmSpec(l1, l2), Target(x, y), floor / 2)
            swept += 1
        assert swept >= 100

    def test_huge_reach_keeps_both_poses(self):
        # tol is a length: poses merge when their angles lie within
        # tol / max(1, l1 + l2) radians, not within tol radians
        result = ik_solve(ArmSpec(10**17, 10**17), Target(10**17, 10**17), 50)
        assert [(s.theta1, s.theta2) for s in result.solutions] == [(0.0, math.pi / 2), (math.pi / 2, -math.pi / 2)]

    @pytest.mark.parametrize("tol", [1, Fraction(1, 10**9), 1e-9])
    def test_tol_of_any_number_type_at_or_above_the_floor_solves(self, tol):
        assert len(ik_solve(ArmSpec(1, 1), Target(1, 1), tol).solutions) == 2

    @pytest.mark.parametrize(
        "link, tol",
        [(1, 1e-17), (1, 5e-324), (1e7, 1e-9), (1e8, 1e-9), (0.5, 2e-16),
         (1, Fraction(1, 10**20)), (10**16, 1), (10**16, Fraction(1, 3))],
    )
    def test_tol_below_the_floor_is_refused(self, link, tol):
        with pytest.raises(ValueError, match=r"^tol \S+ is below the floor \S+ "):
            ik_solve(ArmSpec(link, link), Target(1.2 * link, 0.5 * link), tol)

    @pytest.mark.parametrize(
        "tol, shown",
        [(Fraction(1, 10**400), "1e-400"), (Fraction(2, 3 * 10**330), "6.66667e-331"), (Fraction(1, 10**20), "1e-20")],
    )
    def test_tol_below_the_float_range_is_shown_as_itself(self, tol, shown):
        with pytest.raises(ValueError, match=rf"^tol {shown} is below the floor 4.44e-16 "):
            ik_solve(ArmSpec(1, 1), Target(1.2, 0.5), tol)

    @pytest.mark.parametrize("link", [1e308, Fraction(10**400)])
    def test_reach_past_the_float_range_is_refused(self, link):
        with pytest.raises(ValueError, match=r"^the reach l1 \+ l2 is beyond the float range$"):
            ik_solve(ArmSpec(link, link), Target(link, link))


# ---- one pose check: the arm reaches the target within 10*tol ----------


def near_origin_targets(count):
    """Seeded arms of equal or nearly equal links, with float targets at
    radii from 1e-6 to 1e-2, where the c1 and s1 lifts divide by r^2."""
    rng = random.Random(20261020)
    for i in range(count):
        l1 = rng.uniform(0.5, 2)
        l2 = l1 if i % 2 else l1 * (1 + rng.uniform(-1e-7, 1e-7))
        radius, phi = 10 ** rng.uniform(-6, -2), rng.uniform(-math.pi, math.pi)
        yield l1, l2, radius * math.cos(phi), radius * math.sin(phi)


def short_float_arms(count):
    """Seeded float arms of reach at most 2, with float targets uniform
    over the annulus."""
    rng = random.Random(20261021)
    for _ in range(count):
        l1, l2 = rng.uniform(0.05, 1), rng.uniform(0.05, 1)
        inner, outer = abs(l1 - l2), l1 + l2
        radius = math.sqrt(rng.uniform(inner**2, outer**2))
        phi = rng.uniform(-math.pi, math.pi)
        yield l1, l2, radius * math.cos(phi), radius * math.sin(phi)


class TestOnePoseCheck:
    """A pose is kept when forward kinematics of the arm lands within
    10*tol of the target, and by no other rule."""

    def assert_two_poses(self, l1, l2, x, y, tol):
        result = ik_solve(ArmSpec(l1, l2), Target(x, y), tol)
        assert result.diagnostic is None and len(result.solutions) == 2, (l1, l2, x, y, result)
        elbow = [s.theta2 for s in result.solutions]
        assert abs(elbow[0] + elbow[1]) < 1e-6, result  # elbow up and elbow down
        for s in result.solutions:
            assert s.residual <= 10 * tol, (l1, l2, x, y, s)
        return result

    def test_near_origin_of_equal_links(self):
        result = self.assert_two_poses(1, 1, 1e-4, 0, 1e-9)
        assert_angles_match(result.solutions, law_of_cosines_ik(1, 1, 1e-4, 0), 1e-6)

    def test_float_arm_at_small_tol(self):
        l1, l2 = 0.3986196605015865, 0.6013803394984135
        x, y = 0.5999667845020998, -0.5615315927524492
        result = self.assert_two_poses(l1, l2, x, y, 1e-12)
        assert_angles_match(result.solutions, law_of_cosines_ik(l1, l2, x, y), 1e-6)

    @settings(max_examples=150, deadline=None)
    @given(
        l1=st.floats(1e-3, 1e3),
        l2=st.floats(1e-3, 1e3),
        radius=st.floats(0, 1.5),
        phi=st.floats(-math.pi, math.pi),
        tol=st.sampled_from([1e-12, 1e-9, 1e-6]),
    )
    # a lift coefficient near 1/radius passes the float range
    @example(l1=1.0, l2=1.0, radius=2.225073858507e-311, phi=0.0, tol=1e-12)
    def test_every_pose_lands_within_ten_tol(self, l1, l2, radius, phi, tol):
        # targets anywhere up to 1.5 times the reach, boundaries included
        x, y = radius * (l1 + l2) * math.cos(phi), radius * (l1 + l2) * math.sin(phi)
        tol *= max(1.0, l1 + l2)
        try:
            result = ik_solve(ArmSpec(l1, l2), Target(x, y), tol)
        except ValueError as exc:
            assert str(exc) == "solution set not finite" and l1 == l2 and x == y == 0
            return
        assert result.solutions or result.diagnostic, (l1, l2, x, y, tol)
        for s in result.solutions:
            assert s.residual <= 10 * tol, (l1, l2, x, y, tol, s)

    @pytest.mark.parametrize(
        "targets, tol",
        [(list(near_origin_targets(200)), 1e-9), (list(short_float_arms(300)), 1e-12)],
        ids=["near-origin", "float-arms-tol-1e-12"],
    )
    def test_sweep_keeps_both_poses_strictly_inside(self, targets, tol):
        inside = 0
        for l1, l2, x, y in targets:
            if strictly_inside(l1, l2, x, y):
                self.assert_two_poses(l1, l2, x, y, tol)
                inside += 1
            else:
                result = ik_solve(ArmSpec(l1, l2), Target(x, y), tol)
                assert result.solutions or result.diagnostic, (l1, l2, x, y)
        assert inside >= 190


# ---- the angle of an integer direction -----------------------------------


def fraction_angle(cosine: Fraction, sine: Fraction) -> float:
    """The angle as ik_solve read it off exact Fraction lifts."""
    scale = max(abs(cosine), abs(sine)) or 1
    theta = math.atan2(float(sine / scale), float(cosine / scale))
    if theta <= -math.pi:
        theta += 2 * math.pi
    return theta + 0.0


# Zero, moderate rationals, and magnitudes from about 1e-300 to 1e300.
components = st.one_of(
    st.just(Fraction(0)),
    st.fractions(max_denominator=10**6),
    st.builds(lambda n, e: n * Fraction(10) ** e, st.integers(-(10**6), 10**6), st.integers(-306, 300)),
)


class TestAngle:
    @settings(max_examples=300)
    @given(components, components, st.sampled_from([None, 1, -1]), st.integers(1, 10**40))
    @example(Fraction(0), Fraction(0), None, 1)
    @example(Fraction(-1), Fraction(0), None, 1)  # theta = pi
    @example(Fraction(-1), Fraction(-1, 10**400), None, 7)  # atan2 gives -pi
    @example(Fraction(1), Fraction(-1, 10**400), None, 1)  # atan2 gives -0.0
    @example(Fraction(10**300), Fraction(0), -1, 1)  # |c| == |s|
    @example(Fraction(1, 10**300), Fraction(0), 1, 3)
    def test_integer_form_is_the_fraction_formula_bit_for_bit(self, cosine, sine, same_magnitude, factor):
        # The lifts as integers over any positive denominator give the
        # angle the exact Fractions gave.
        if same_magnitude is not None:
            sine = same_magnitude * cosine
        (c, s), _ = kinematics._cleared(cosine, sine)
        expected = fraction_angle(cosine, sine)
        assert kinematics._angle(c * factor, s * factor).hex() == expected.hex()
        assert -math.pi < expected <= math.pi


# ---- pinned outputs ------------------------------------------------------


def pinned_cases():
    """Seeded (l1, l2, x, y, tol) on the three ik-sweep arms, float and
    rational, inside the annulus and up to 5% of its width past either
    edge, at four tols; then targets on both boundary circles, next to the
    origin, and arms with a 1e-300 link."""
    rng = random.Random(20261019)
    for l1, l2 in IK_SWEEP_ARMS:
        inner, outer = abs(l1 - l2), l1 + l2
        for k in range(700):
            radius = float(inner) + float(outer - inner) * rng.uniform(-0.05, 1.05)
            phi = rng.uniform(-math.pi, math.pi)
            x, y = radius * math.cos(phi), radius * math.sin(phi)
            if k % 2:
                limit = 97 if k % 4 == 1 else 10**6
                x, y = Fraction(x).limit_denominator(limit), Fraction(y).limit_denominator(limit)
            yield l1, l2, x, y, (1e-9, 1e-12, 1e-6, 1e-3)[k // 2 % 4]
        for x, y in named_targets(l1, l2):
            yield l1, l2, x, y, 1e-9
        for exponent in range(-14, 0, 2):
            radius, phi = 10.0**exponent, rng.uniform(-math.pi, math.pi)
            yield l1, l2, radius * math.cos(phi), radius * math.sin(phi), 1e-9
            yield l1, l2, Fraction(1, 10**-exponent), Fraction(0), 1e-12
    for l1, l2, x, y in [
        (1e-300, 1, 1, 0), (1e-300, 1, 0.6, -0.8), (1, 1e-300, -0.8, 0.6), (1e-300, 1, 0, 1),
        (1e-300, 1e-300, 1e-300, 1e-300), (1e-300, 1e-300, 2e-300, 0), (1e-300, 1e-300, 0, 0),
        (1, 1, 0, 0), (1e-300, 1, 0.5, 0),
    ]:
        for tol in (1e-9, 1e-15):
            yield l1, l2, x, y, tol


def pinned_outcome(l1, l2, x, y, tol):
    try:
        result = ik_solve(ArmSpec(l1, l2), Target(x, y), tol)
    except ValueError as exc:
        return repr(str(exc))
    return repr(([(s.theta1, s.theta2, s.residual) for s in result.solutions], result.diagnostic))


# The sha256 of every pinned outcome, one a line, as ik_solve gave them when
# the lifts were exact Fractions and the roots were refined by bisection.
PINNED_DIGEST = "6988878b8e17c5f310a1d4112fcff685d88c9417052c4e4a296bfdf1f9f8cba0"


def test_ik_solve_outputs_are_pinned():
    outcomes = [pinned_outcome(*case) for case in pinned_cases()]
    assert len(outcomes) >= 2000
    assert hashlib.sha256("\n".join(outcomes).encode()).hexdigest() == PINNED_DIGEST
