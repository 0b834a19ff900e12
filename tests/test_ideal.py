import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from groebnerkit import division
from groebnerkit.groebner import GroebnerBasis, buchberger, groebner_basis
from groebnerkit.ideal import (
    StaircaseDiagram,
    eliminate,
    is_member,
    staircase,
    univariate_real_roots,
)
from groebnerkit.order import GREVLEX, GRLEX, LEX
from groebnerkit.parse import parse_polynomial, parse_system
from groebnerkit.ring import Monomial, Polynomial, RingMismatchError

from reference_roots import reference_roots
from strategies import CTX_XY, CTX_XYZ, CTX_T, nonzero_rationals, rationals


def _xy(text):
    return parse_polynomial(text, CTX_XY)


@pytest.fixture(scope="module")
def worked_basis():
    return groebner_basis([_xy("x^3 - 2*x*y"), _xy("x^2*y - 2*y^2 + x")], GRLEX)


class TestMembership:
    def test_product_of_leading_ideal(self, worked_basis):
        assert is_member(_xy("x^2*y"), worked_basis)

    def test_one_not_in_proper_ideal(self):
        basis = groebner_basis([_xy("x"), _xy("y")], GRLEX)
        assert not is_member(_xy("1"), basis)

    def test_self_membership(self, worked_basis):
        for g in worked_basis.generators:
            assert is_member(g, worked_basis)

    def test_random_combinations_are_members(self, worked_basis):
        rng = random.Random(3)
        gens = worked_basis.generators
        for _ in range(20):
            f = _random_poly(rng)
            h = _random_poly(rng)
            g1, g2 = rng.choice(gens), rng.choice(gens)
            assert is_member(f * g1 + h * g2, worked_basis)

    def test_context_mismatch(self, worked_basis):
        with pytest.raises(RingMismatchError):
            is_member(parse_polynomial("x", CTX_XYZ), worked_basis)


def _random_poly(rng):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        m = Monomial((rng.randint(0, 2), rng.randint(0, 2)))
        terms[m] = terms.get(m, 0) + Fraction(rng.randint(-4, 4))
    return Polynomial(CTX_XY, terms)


class TestEliminate:
    def test_circle_meets_diagonal(self):
        basis = groebner_basis([_xy("x^2 + y^2 - 1"), _xy("x - y")], LEX)
        kept = eliminate(basis, 1)
        assert kept == [_xy("y^2 - 1/2")]

    def test_keep_all_variables(self):
        basis = groebner_basis([_xy("x^2 + y^2 - 1"), _xy("x - y")], LEX)
        assert eliminate(basis, 2) == list(basis.generators)

    def test_no_generator_in_kept_block(self):
        basis = groebner_basis([_xy("x")], LEX)
        assert eliminate(basis, 1) == []

    def test_requires_lex(self):
        basis = groebner_basis([_xy("x")], GRLEX)
        with pytest.raises(ValueError, match="elimination requires lex"):
            eliminate(basis, 1)

    def test_keep_count_range(self):
        basis = groebner_basis([_xy("x")], LEX)
        for bad in (0, 3, -1):
            with pytest.raises(ValueError, match="keep_count"):
                eliminate(basis, bad)

    def test_eliminant_vanishes_on_solutions(self):
        # numeric solutions of the original system satisfy the eliminant
        basis = groebner_basis([_xy("x^2 + y^2 - 1"), _xy("x - y")], LEX)
        (eliminant,) = eliminate(basis, 1)
        for y in (math.sqrt(0.5), -math.sqrt(0.5)):
            value = sum(
                float(c) * (y ** m[1]) for m, c in eliminant.terms.items()
            )
            assert abs(value) < 1e-9


class TestStaircase:
    def test_worked_basis(self, worked_basis):
        diagram = staircase(worked_basis)
        assert diagram.minimal_generators == ((0, 2), (1, 1), (2, 0))

    def test_single_column(self):
        diagram = staircase(groebner_basis([_xy("x")], GRLEX))
        assert diagram.minimal_generators == ((1, 0),)

    def test_dominated_generator_removed(self):
        basis = GroebnerBasis((_xy("x^2"), _xy("x^3")), GRLEX, reduced=False)
        diagram = staircase(basis)
        assert diagram.minimal_generators == ((2, 0),)

    def test_reads_the_leads_off_a_raw_basis_without_building_it(self, monkeypatch):
        built = []
        polynomial = division._polynomial

        def spy(form, monomial, wrap):
            built.append(form)
            return polynomial(form, monomial, wrap)

        monkeypatch.setattr(division, "_polynomial", spy)
        raw = buchberger([_xy("x^3 - 2*x*y"), _xy("x^2*y - 2*y^2 + x")], GREVLEX)
        diagram = staircase(raw)
        assert built == []
        assert diagram == staircase(GroebnerBasis(raw.generators, GREVLEX, False))
        assert built  # reading raw.generators builds the new members

    def test_two_variables_required(self):
        basis = groebner_basis([parse_polynomial("x", CTX_XYZ)], GRLEX)
        with pytest.raises(ValueError, match="staircase supports 2 variables"):
            staircase(basis)

    def test_minimality_and_brute_force_agreement(self):
        rng = random.Random(11)
        for _ in range(25):
            monos = {
                (rng.randint(0, 6), rng.randint(0, 6))
                for _ in range(rng.randint(1, 5))
            }
            polys = [
                Polynomial(CTX_XY, {Monomial(m): Fraction(1)}) for m in monos
            ]
            basis = GroebnerBasis(tuple(polys), GRLEX, reduced=False)
            diagram = staircase(basis)
            gens = diagram.minimal_generators
            for a, b in gens:
                assert not any(
                    (c, d) != (a, b) and c <= a and d <= b for c, d in gens
                )
            for u in range(0, 11):
                for v in range(0, 11):
                    direct = any(c <= u and d <= v for c, d in monos)
                    assert diagram.contains(u, v) == direct


class TestUnivariateRealRoots:
    def test_sqrt_two(self):
        p = parse_polynomial("t^2 - 2", CTX_T)
        roots = univariate_real_roots(p, 1e-9)
        assert len(roots) == 2
        assert abs(roots[0] + math.sqrt(2)) < 1e-9
        assert abs(roots[1] - math.sqrt(2)) < 1e-9

    def test_no_real_roots(self):
        assert univariate_real_roots(parse_polynomial("t^2 + 1", CTX_T), 1e-9) == []

    def test_triple_root_once(self):
        roots = univariate_real_roots(parse_polynomial("t^3", CTX_T), 1e-9)
        assert roots == [0.0]

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError, match="identically zero"):
            univariate_real_roots(Polynomial.zero(CTX_T), 1e-9)

    def test_multivariate_rejected(self):
        with pytest.raises(ValueError, match="not univariate"):
            univariate_real_roots(_xy("x + y"), 1e-9)

    def test_bad_tolerance(self):
        for tol in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="tol must be positive and finite"):
                univariate_real_roots(parse_polynomial("t^2 - 2", CTX_T), tol)

    @pytest.mark.parametrize("text", ["1024*t - 3", "t^2 - 2"])
    def test_tolerance_whose_float_is_zero_is_refused(self, text):
        # It would stop bisection at cells 1/2 wide: [0.25], or [-1.25, 1.25].
        assert univariate_real_roots(parse_polynomial(text, CTX_T), 5e-324)[-1] > 0.001
        with pytest.raises(ValueError, match="^tol must be positive and finite as a float$"):
            univariate_real_roots(parse_polynomial(text, CTX_T), Fraction(1, 10**400))

    def test_tolerance_past_the_float_range_is_refused(self):
        for tol in (Fraction(10**400), 10**400):
            with pytest.raises(ValueError, match="^tol must be positive and finite as a float$"):
                univariate_real_roots(parse_polynomial("t^2 - 2", CTX_T), tol)

    def test_roots_past_the_float_range_rejected(self):
        for text in ("t - 10^400", "t^2 - 10^800"):
            with pytest.raises(ValueError, match="^a root is beyond the float range$"):
                univariate_real_roots(parse_polynomial(text, CTX_T), 1e-9)

    def test_roots_inside_the_float_range_a_gap_past_it_apart(self):
        # The roots are floats, but their distance 2e308 is not.
        roots = univariate_real_roots(parse_polynomial("t^2 - 10^616", CTX_T), 1e-9)
        assert roots == [-1e308, 1e308]

    def test_nonzero_constant_has_no_roots(self):
        p = parse_polynomial("5", CTX_T)
        assert univariate_real_roots(p, 1e-9) == []

    def test_univariate_in_a_larger_context(self):
        # only one variable involved, embedded in a 2-variable context
        roots = univariate_real_roots(_xy("y^2 - 1/2"), 1e-9)
        assert abs(roots[1] - 0.7071067812) < 1e-9

    def test_ascending_and_accurate(self):
        cases = {
            # (t-1)(t+2)(t-3)
            "t^3 - 2*t^2 - 5*t + 6": [-2, 1, 3],
            # two roots 1/10 apart next to one a thousand out
            "(t-1)*(10*t-11)*(t-1000)": [1, Fraction(11, 10), 1000],
            # a double root, where the sign does not change
            "(3*t-1)^2*(t-2)": [Fraction(1, 3), 2],
        }
        for text, expected in cases.items():
            roots = univariate_real_roots(parse_polynomial(text, CTX_T), 1e-9)
            assert roots == pytest.approx([float(r) for r in expected], abs=1e-9)

    def test_rolle_consistency(self):
        # between consecutive roots the derivative changes sign
        p = parse_polynomial("t^3 - 2*t^2 - 5*t + 6", CTX_T)
        roots = univariate_real_roots(p, 1e-9)

        def derivative(t):
            return 3 * t**2 - 4 * t - 5

        for left, right in zip(roots, roots[1:]):
            assert derivative(left) * derivative(right) < 0

    def test_close_roots_merge_within_tol(self):
        cases = [
            # (t - 0.1)(t + 0.1) with a coarse tolerance collapses to one root
            ("100*t^2 - 1", 0.5, 0),
            # roots 1/3 and 1/3 + 1e-12 are never separated at tol 1e-9
            ("(3*t - 1)*(3000000000000*t - 1000000000003)", 1e-9, 1 / 3),
        ]
        for text, tol, centre in cases:
            roots = univariate_real_roots(parse_polynomial(text, CTX_T), tol)
            assert len(roots) == 1
            assert abs(roots[0] - centre) < tol

    @settings(max_examples=60, deadline=None)
    @given(
        st.dictionaries(rationals(), st.integers(1, 3), min_size=1, max_size=4),
        st.booleans(),
    )
    def test_distinct_roots_of_a_product(self, multiplicities, times_t2_plus_1):
        t = Polynomial.variable(CTX_T, "t")
        p = t * t + 1 if times_t2_plus_1 else Polynomial.constant(CTX_T, 1)
        for root, multiplicity in multiplicities.items():
            for _ in range(multiplicity):
                p = p * (t - root)
        tol = 1e-9
        roots = univariate_real_roots(p, tol)
        assert len(roots) == len(multiplicities)
        for got, want in zip(roots, sorted(multiplicities)):
            assert abs(got - float(want)) <= tol

    def test_multiple_roots_on_bisection_points_are_exact(self):
        # -3 and 1/2 are dyadic, so bisection lands on them exactly
        p = parse_polynomial("(2*t - 1)^2*(t + 3)^3", CTX_T)
        assert univariate_real_roots(p, 1e-9) == [-3.0, 0.5]

    @settings(max_examples=60, deadline=None)
    @given(
        st.dictionaries(rationals(), st.integers(1, 3), min_size=1, max_size=4),
        nonzero_rationals(),
        st.booleans(),
        st.sampled_from(CTX_XYZ.names),
    )
    def test_result_depends_only_on_distinct_roots(
        self, multiplicities, scale, times_t2_plus_1, name
    ):
        # scale, multiplicity, a factor without real roots and the
        # surrounding context change the polynomial but not its roots
        t = Polynomial.variable(CTX_XYZ, name)
        p = (t * t + 1) * scale if times_t2_plus_1 else Polynomial.constant(CTX_XYZ, scale)
        for root, multiplicity in multiplicities.items():
            p = p * (t - root) ** multiplicity
        s = Polynomial.variable(CTX_T, "t")
        distinct = Polynomial.constant(CTX_T, 1)
        for root in multiplicities:
            distinct = distinct * (s - root)
        assert univariate_real_roots(p, 1e-9) == univariate_real_roots(distinct, 1e-9)


# The 12 points of perfbench's fixed lex system with forms (3, 2, 2): their
# last coordinates are distinct, and the monic eliminant they give has a
# Cauchy bound near 1e13.
FIXED_POINTS = [
    (-1, -10, -14), (-4, -25, -35), (3, 14, 22), (0, -1, 1),
    (-1, -3, -7), (-4, -18, -28), (3, 21, 29), (0, 6, 8),
    (-1, -7, -11), (-4, -22, -32), (3, 17, 25), (0, 2, 4),
]


class TestDyadicPoints:
    """univariate_real_roots isolates and refines on integer numerators
    over 2^s, and returns the points bisection returns; the reference
    bisects on Fractions, so the two return the same list exactly."""

    @settings(max_examples=100, deadline=None)
    @given(
        st.dictionaries(rationals(), st.integers(1, 5), min_size=1, max_size=4),
        st.booleans(),
        st.floats(1e-15, 1),
        st.sampled_from([(CTX_T, "t"), *((CTX_XYZ, name) for name in CTX_XYZ.names)]),
    )
    # Refinement edge cases: roots on the level-stop grid, on the grid
    # below it and on a coarser dyadic point; f vanishing at the left end
    # of an isolating interval (the root 0 ends the cell left of 1/3);
    # roots closer than tol, and exactly tol apart; tol of 1.0 and of 1e-15.
    @example({Fraction(3, 2**31): 1, Fraction(5, 2**30): 1, Fraction(5, 8): 1}, False, 1e-9, (CTX_T, "t"))
    @example({Fraction(0): 1, Fraction(1, 3): 1}, False, 1e-9, (CTX_T, "t"))
    @example({Fraction(1, 3): 1, Fraction(1, 3) + Fraction(1, 10**12): 1, Fraction(-2): 1}, False, 1e-9, (CTX_T, "t"))
    @example({Fraction(0): 1, Fraction(1, 2**20): 1}, False, 2.0**-20, (CTX_T, "t"))
    @example({Fraction(1, 3): 1, Fraction(-7, 2): 2, Fraction(5): 1}, True, 1.0, (CTX_T, "t"))
    @example({Fraction(2, 3): 1, Fraction(5, 7): 3, Fraction(-29, 11): 1}, True, 1e-15, (CTX_XYZ, "z"))
    def test_same_roots_as_the_reference(self, multiplicities, times_t2_plus_1, tol, variable):
        # Multiple roots make the chain end in a gcd that is not constant,
        # and a variable past the first is read at its own index.
        context, name = variable
        t = Polynomial.variable(context, name)
        p = t * t + 1 if times_t2_plus_1 else Polynomial.constant(context, 1)
        for root, multiplicity in multiplicities.items():
            p = p * (t - root) ** multiplicity
        assert univariate_real_roots(p, tol) == reference_roots(p, tol)

    def test_leaves_the_division_memo_as_it_found_it(self, monkeypatch):
        # The chain divides integer lists and stores no polynomial's form,
        # so the next query on the basis converts none of its members again.
        basis = groebner_basis([_xy("x - y^2"), _xy("y^3 - 2*y^2 + y")], LEX)
        assert is_member(_xy("x^2 - y^4"), basis)
        (eliminant,) = eliminate(basis, 1)
        assert univariate_real_roots(eliminant, 1e-9) == [0.0, 1.0]
        converted = []
        form = division._form

        def spy(g, packing):
            converted.append(g)
            return form(g, packing)

        monkeypatch.setattr(division, "_form", spy)
        assert is_member(_xy("x^2 - y^4"), basis)
        assert converted == []

    @pytest.mark.parametrize("tol", [1e-15, 1e-9, 0.25, 1.0])
    def test_small_cauchy_bound(self, tol):
        # t and -3*t^2 start on (-1, 1], so every midpoint lies below 1;
        # 2*t - 1 starts on (-2, 2]
        for text, want in [("t", [0.0]), ("-3*t^2", [0.0]), ("2*t - 1", [0.5])]:
            p = parse_polynomial(text, CTX_T)
            assert univariate_real_roots(p, tol) == reference_roots(p, tol) == want

    @pytest.mark.parametrize("tol", [1e-9, 0.25])
    def test_cauchy_bound_rounds_up(self, tol):
        # max |c_i / c_d| is 7/4, so the bound 11/4 starts on (-4, 4]; had
        # it rounded down to (-2, 2], the root 9/4 would be outside
        p = parse_polynomial("(t - 9/4)*(t + 1/2)", CTX_T)
        roots = univariate_real_roots(p, tol)
        assert roots == reference_roots(p, tol)
        assert len(roots) == 2 and abs(roots[1] - 2.25) < tol

    @pytest.mark.parametrize("tol", [1e-15, 1e-9, 2.0**-11])
    def test_root_on_a_deep_dyadic_point_is_exact(self, tol):
        p = parse_polynomial("1024*t - 3", CTX_T)
        assert univariate_real_roots(p, tol) == reference_roots(p, tol) == [3 / 1024]

    @pytest.mark.parametrize("tol", [1e-15, 1e-9, 1e-3])
    def test_cauchy_bound_near_1e13(self, tol):
        t = Polynomial.variable(CTX_T, "t")
        p = Polynomial.constant(CTX_T, 1)
        for *_, last in FIXED_POINTS:
            p = p * (t - last)
        roots = univariate_real_roots(p, tol)
        assert roots == reference_roots(p, tol)
        assert roots == sorted(float(last) for *_, last in FIXED_POINTS)

    def test_tol_wider_than_the_start_interval(self):
        # (-2, 2] is never split at tol 5: both roots +-1/2 merge into its
        # midpoint, and the one root 1/3 is not refined past it
        for text in ("4*t^2 - 1", "3*t - 1"):
            p = parse_polynomial(text, CTX_T)
            assert univariate_real_roots(p, 5.0) == reference_roots(p, 5.0) == [0.0]
