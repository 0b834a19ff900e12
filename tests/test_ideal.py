import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from groebnerkit import division, ideal
from groebnerkit.division import divide
from groebnerkit.groebner import GroebnerBasis, buchberger, groebner_basis
from groebnerkit.ideal import (
    StaircaseDiagram,
    _pseudo_divide,
    _variations_at,
    eliminate,
    is_member,
    staircase,
    univariate_real_roots,
)
from groebnerkit.kinematics import ArmSpec, Target, ik_solve
from groebnerkit.order import GREVLEX, GRLEX, LEX
from groebnerkit.parse import parse_polynomial, parse_system
from groebnerkit.ring import Monomial, Polynomial, RingMismatchError, VariableContext

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


def _returned(roots, p, tol):
    """The root list, or the message of the ValueError raised instead."""
    try:
        return roots(p, tol)
    except ValueError as error:
        return str(error)


def _big_rationals():
    """Ints and Fractions of either sign up to 10^400 in magnitude, zero included."""
    big = st.integers(-(10**400), 10**400)
    return st.one_of(st.integers(-9, 9), rationals(), big, st.builds(Fraction, big, st.integers(1, 10**400)))


class TestDyadicPoints:
    """univariate_real_roots finds each root as an integer numerator over
    2^s, in closed form up to degree 2 and by Sturm bisection and
    refinement above it, and returns the points bisection returns; the
    reference bisects on Fractions, so the two return the same list
    exactly."""

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

    # The start interval (-2^e, 2^e] is no cell of the grid one level up,
    # so it is split even when it holds one root: a root in either half,
    # a root at 0, a triple root beside a complex pair. At tol 1e-9, and
    # at a tol wider than the Cauchy bound, where nothing is split.
    @pytest.mark.parametrize("tol", [1e-9, 1e3])
    @pytest.mark.parametrize("text", ["t^3 - 2", "t^3 + 2", "t^3 + t", "(2*t - 1)^3*(t^2 + 3)"])
    def test_the_start_interval_as_the_reference(self, text, tol):
        p = parse_polynomial(text, CTX_T)
        assert univariate_real_roots(p, tol) == reference_roots(p, tol)

    def test_every_interval_refined_below_stop_is_a_cell(self, monkeypatch):
        # A cell (a, a + 2] at level s is a cell of level s - 1 when a is
        # even; only the start interval has an odd left end.
        calls, refine = [], ideal._refine

        def spy(f, a, b, s, stop):
            calls.append((a, s, stop))
            return refine(f, a, b, s, stop)

        monkeypatch.setattr(ideal, "_refine", spy)
        rng = random.Random(7)
        t = Polynomial.variable(CTX_T, "t")
        polys = [parse_polynomial(text, CTX_T) for text in ("t^3 - 2", "t^3 + 2", "t^3 + t", "(2*t - 1)^3*(t^2 + 3)")]
        polys += [sum((rng.randint(-9, 9) * t**k for k in range(rng.randint(3, 7))), t**7) for _ in range(40)]
        for p in polys:
            for tol in (5e-324, 1e-9, 0.5, 1e3):
                univariate_real_roots(p, tol)
        assert any(a % 2 for a, s, stop in calls)  # the start interval, at s >= stop
        assert [(a, s, stop) for a, s, stop in calls if a % 2 and s < stop] == []

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 6).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n - 1))),
        st.dictionaries(rationals(), st.integers(1, 3), min_size=1, max_size=3),
        st.sampled_from([0, 1, 2, 130, 256, 300]),
        st.floats(1e-12, 1e-3),
    )
    # The first and the last field, in fields of 8 bits, of 16 (degree
    # 256) and of 17 (degree past 2^15).
    @example((6, 0), {Fraction(1, 3): 1, Fraction(-2): 2}, 0, 1e-9)
    @example((6, 5), {Fraction(1, 3): 1, Fraction(-2): 2}, 0, 1e-9)
    @example((4, 0), {Fraction(5, 7): 1}, 256, 1e-9)
    @example((4, 3), {Fraction(5, 7): 1}, 256, 1e-9)
    @example((2, 1), {Fraction(-1, 2): 1}, 2**15, 1e-9)
    def test_the_one_variable_in_use_is_found_in_any_field(self, variable, multiplicities, power, tol):
        # v_k^power times the roots' factors, in n variables: the roots
        # of v_k, whatever field it takes; with any other variable added,
        # not univariate.
        n, k = variable
        context = VariableContext([f"v{i}" for i in range(n)])
        v = [Polynomial.variable(context, name) for name in context.names]
        p = v[k] ** power
        for root, multiplicity in multiplicities.items():
            p = p * (v[k] - root) ** multiplicity
        assert p._width >= (17 if power >= 2**15 else 16 if power >= 256 else 8)
        assert univariate_real_roots(p, tol) == reference_roots(p, tol)
        for other in range(n):
            if other != k:
                with pytest.raises(ValueError, match="^not univariate$"):
                    univariate_real_roots(p + v[other] * v[k] ** power, tol)
        assert univariate_real_roots(Polynomial.constant(context, Fraction(-3, 7)), tol) == []
        with pytest.raises(ValueError, match="^identically zero$"):
            univariate_real_roots(p - p, tol)

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(["line", "free", "roots", "double", "complex"]),
        _big_rationals().filter(bool),
        _big_rationals(),
        _big_rationals(),
        st.one_of(st.floats(5e-324, 1e6), st.integers(-1074, 19).map(lambda e: 2.0**e)),
        st.sampled_from(CTX_XYZ.names),
    )
    # Two roots in one cell of the finest grid, and two more with the
    # cell's right end one of them; roots in adjacent cells, whose centres
    # lie within tol; a root on that grid and one on a coarser dyadic
    # point; irrational roots just past grid points, where the integer
    # square root over z is exact; tol wider than the start interval
    # (-2, 2]; roots at the edge of the float range, and past it.
    @example("roots", 1, Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10**12), 1e-9, "x")
    @example("roots", 1, Fraction(5, 2**30), Fraction(5, 2**30) - Fraction(1, 10**12), 1e-9, "x")
    @example("free", 1, 0, -3, 1e-9, "z")
    @example("roots", 1, Fraction(5, 2**30) - Fraction(1, 10**12), Fraction(5, 2**30) + Fraction(1, 10**12), 1e-9, "y")
    @example("roots", -3, Fraction(3, 2**30), Fraction(5, 8), 1e-9, "z")
    @example("roots", 4, Fraction(1, 2), Fraction(-1, 2), 5.0, "x")
    @example("free", 1, 0, -(10**616), 1e-9, "x")
    @example("free", 1, 0, -(10**800), 1e-9, "y")
    def test_degree_two_same_roots_as_the_reference(self, shape, lead, a, b, tol, name):
        # Degree 1 and 2 take the closed form: a free quadratic's
        # discriminant is mostly not a square, the roots' is a square, the
        # double root's is zero and the complex pair's is negative.
        t = Polynomial.variable(CTX_XYZ, name)
        p = {
            "line": lambda: lead * t + a,
            "free": lambda: lead * t * t + a * t + b,
            "roots": lambda: lead * (t - a) * (t - b),
            "double": lambda: lead * (t - a) ** 2,
            "complex": lambda: lead * ((t - a) ** 2 + (b * b or 1)),
        }[shape]()
        assert _returned(univariate_real_roots, p, tol) == _returned(reference_roots, p, tol)

    def test_degree_two_builds_no_sturm_chain(self, monkeypatch):
        calls = []
        for name in ("_pseudo_divide", "_variations_at", "_refine"):
            original = getattr(ideal, name)
            monkeypatch.setattr(ideal, name, lambda *args, original=original, name=name: calls.append(name) or original(*args))
        for text in ("3*t - 1", "t^2 - 2", "(2*t - 1)^2", "t^2 + 1", "-4*t^2 + t"):
            univariate_real_roots(parse_polynomial(text, CTX_T), 1e-9)
        assert ik_solve(ArmSpec(1, 1), Target(1, 1)).solutions
        assert calls == []
        univariate_real_roots(parse_polynomial("t^3 - 2", CTX_T), 1e-9)
        assert {"_pseudo_divide", "_variations_at", "_refine"} <= set(calls)

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


def _in_t(coefficients: list) -> Polynomial:
    return Polynomial(CTX_T, {(k,): c for k, c in enumerate(coefficients) if c})


def _coefficients(p: Polynomial) -> list:
    """p's coefficients in t, lowest degree first; [] for zero."""
    return [p.terms.get((k,), 0) for k in range(1 + max((m[0] for m in p.terms), default=-1))]


def _times_plus(q: list[int], g: list[int], r: list[int]) -> list[int]:
    """q * g + r on coefficient lists, with no leading zeros."""
    total = [0] * max(len(q) + len(g) - 1, len(r))
    for i, a in enumerate(q):
        for j, b in enumerate(g):
            total[i + j] += a * b
    for k, c in enumerate(r):
        total[k] += c
    while total and not total[-1]:
        total.pop()
    return total


class TestPseudoDivide:
    """The Sturm chain's division on integer coefficient lists: divide's
    quotient and remainder, both scaled by one positive integer."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(-(10**30), 10**30), max_size=8),
        st.lists(st.integers(-(10**30), 10**30), min_size=1, max_size=6).filter(lambda g: g[-1]),
    )
    @example(f=[1, -2], g=[3, 0, -5])  # deg f < deg g, and a negative lead
    @example(f=[0, 6, 0, -4, 9], g=[2, -6])
    @example(f=[5, 0, 7, 0], g=[-4])  # a leading zero, and a constant divisor
    @example(f=[], g=[1, 1])
    def test_a_positive_multiple_of_the_division(self, f, g):
        q, r = _pseudo_divide(f, g)
        assert len(r) < len(g) and (not r or r[-1])
        expected = divide(_in_t(f), [_in_t(g)], LEX)
        quotient, remainder = _coefficients(expected.quotients[0]), _coefficients(expected.remainder)
        f_coefficients = _coefficients(_in_t(f))
        total = _times_plus(q, g, r)
        if not f_coefficients:
            assert q == r == total == []
            return
        m = Fraction(total[-1], f_coefficients[-1])
        assert m > 0 and m.denominator == 1
        assert total == [m * c for c in f_coefficients]
        assert q == [m * c for c in quotient]
        assert r == [m * c for c in remainder]


@st.composite
def chains_at_points(draw):
    """A chain of integer lists and a point num / 2^s, at a positive or
    negative level, some members vanishing there by a linear factor."""
    num, s = draw(st.integers(-(10**6), 10**6)), draw(st.integers(-8, 12))
    root = [-(num << -s), 1] if s < 0 else [-num, 1 << s]
    chain = []
    for _ in range(draw(st.integers(1, 7))):
        h = draw(st.lists(st.integers(-(10**9), 10**9), min_size=1, max_size=9))
        if draw(st.booleans()):
            h = _times_plus(h, root, [])
        chain.append(h or [0])
    return chain, num, s


class TestVariationsAt:
    @settings(max_examples=300, deadline=None)
    @given(chains_at_points())
    @example(([[1], [-1, 1], [0, 0, 1]], 0, 0))  # the middle member vanishes
    @example(([[-3, 1], [2], [1, 0, -1]], 3, -2))  # 3 / 2^-2 is 12
    def test_counts_the_sign_changes_of_the_member_values(self, drawn):
        chain, num, s = drawn
        x = num * Fraction(2) ** -s
        signs = [v > 0 for v in (sum(c * x**k for k, c in enumerate(h)) for h in chain) if v]
        assert _variations_at(chain, num, s) == sum(t != u for t, u in zip(signs, signs[1:]))
