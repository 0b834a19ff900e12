import math
import random
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, settings

from groebnerkit import kinematics
from groebnerkit.groebner import GroebnerBasis, groebner_basis, reduce_basis
from groebnerkit.ideal import is_member
from groebnerkit.kinematics import (
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
        for arm in (ArmSpec(2, 1), ArmSpec(Fraction(3, 2), Fraction(1, 2)), ArmSpec(0.5, 0.75)):
            assert ik_solve(arm, Target(0, 0)).diagnostic == "unreachable"

    def test_folded_arm_continuum_rejected(self):
        with pytest.raises(ValueError, match="solution set not finite"):
            ik_solve(ArmSpec(1, 1), Target(0, 0), 1e-9)
        # also for rational and float links, and a float target snapping to 0
        for link in (Fraction(3, 2), 0.75):
            for target in (Target(0.0, -0.0), Target(1e-9, 0)):
                with pytest.raises(ValueError, match="solution set not finite"):
                    ik_solve(ArmSpec(link, link), target)

    @pytest.mark.parametrize("l1, l2, x, y", [(1e-300, 1, 1, 0), (1, 1e-9, 0.6, -0.8), (2e-7, 1.5, 0, 1.5)])
    def test_link_snapped_to_zero_is_not_finite(self, l1, l2, x, y):
        # the zero link turns freely at every point of the other's circle
        with pytest.raises(ValueError, match="solution set not finite"):
            ik_solve(ArmSpec(l1, l2), Target(x, y))
        assert ik_solve(ArmSpec(l1, l2), Target(x / 2, y / 2)).diagnostic == "unreachable"

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
            basis = kinematics._basis(l1, l2, x, y)
            assert basis.reduced
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
            sl1, sl2, sx, sy = map(kinematics._snap, (l1, l2, x, y))
            r2 = sx * sx + sy * sy
            if not (sl1 - sl2) ** 2 <= r2 <= (sl1 + sl2) ** 2 or not r2:
                continue
            direct = groebner_basis(ik_system(ArmSpec(l1, l2), Target(x, y)), LEX)
            specialised = kinematics._basis(sl1, sl2, sx, sy)
            assert [g.terms for g in specialised] == [g.terms for g in direct], (l1, l2, x, y)
            compared += 1
        assert compared >= 400

    def test_members_that_miss_the_system_raise(self, monkeypatch):
        members = kinematics._members

        def corrupted(*args):
            s2_squared, c2, s1, c1 = members(*args)
            return [s2_squared, c2 + Fraction(1, 7), s1, c1]

        monkeypatch.setattr(kinematics, "_members", corrupted)
        with pytest.raises(RuntimeError, match="does not reduce to zero"):
            ik_solve(ArmSpec(1, 1), Target(1, 1))


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


def snapped_reachable(l1, l2, x, y):
    sl1, sl2, sx, sy = map(kinematics._snap, (l1, l2, x, y))
    return (sl1 - sl2) ** 2 < sx * sx + sy * sy < (sl1 + sl2) ** 2


class TestScale:
    def test_every_scale_keeps_both_poses(self):
        tol = 1e-9
        swept = 0
        for l1, l2, x, y in scaled_targets(SCALES, 30):
            if not snapped_reachable(l1, l2, x, y):
                continue
            result = ik_solve(ArmSpec(l1, l2), Target(x, y), tol)
            assert_angles_match(result.solutions, law_of_cosines_ik(l1, l2, x, y), 1e-6)
            for s in result.solutions:
                assert s.residual <= 10 * tol
            swept += 1
        assert swept >= 280

    def test_tol_at_the_floor_keeps_both_poses(self):
        # Exact arms and targets: a float link's snap error would count
        # against the forward-kinematics check as well.
        swept = 0
        for l1, l2, x, y in scaled_targets([10.0**k for k in range(-3, 10, 2)], 15):
            l1, l2, x, y = map(kinematics._snap, (l1, l2, x, y))
            if not snapped_reachable(l1, l2, x, y):
                continue
            floor = 2**-52 * max(1.0, float(l1 + l2))
            result = ik_solve(ArmSpec(l1, l2), Target(x, y), floor)
            assert len(result.solutions) == 2, (l1, l2, x, y)
            with pytest.raises(ValueError, match="below the floor"):
                ik_solve(ArmSpec(l1, l2), Target(x, y), floor / 2)
            swept += 1
        assert swept >= 100

    @pytest.mark.parametrize("link, tol", [(1, 1e-17), (1, 5e-324), (1e7, 1e-9), (1e8, 1e-9), (0.5, 2e-16)])
    def test_tol_below_the_floor_is_refused(self, link, tol):
        with pytest.raises(ValueError, match=r"^tol \S+ is below the floor \S+ "):
            ik_solve(ArmSpec(link, link), Target(1.2 * link, 0.5 * link), tol)
