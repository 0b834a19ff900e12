import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from groebnerkit.ring import Monomial, Polynomial, RingMismatchError, VariableContext

from strategies import CTX_XY, CTX_T, rationals

CTX_XYZ = VariableContext(["x", "y", "z"])


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
