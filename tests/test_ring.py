import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from groebnerkit.order import GREVLEX
from groebnerkit.parse import format_polynomial, parse_polynomial
from groebnerkit.ring import (
    Monomial,
    Polynomial,
    RingMismatchError,
    VariableContext,
    rat_normalize,
)

from strategies import CTX_XY, CTX_XYZ, nonzero_rationals, polynomials, rationals


class TestRatNormalize:
    def test_gcd_reduction(self):
        assert rat_normalize(2, 4) == Fraction(1, 2)

    def test_sign_normalization(self):
        q = rat_normalize(3, -6)
        assert q == Fraction(-1, 2)
        assert q.numerator == -1 and q.denominator == 2

    def test_canonical_zero(self):
        q = rat_normalize(0, 5)
        assert q.numerator == 0 and q.denominator == 1

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError, match="zero denominator"):
            rat_normalize(1, 0)

    @given(rationals())
    def test_idempotent(self, q):
        assert rat_normalize(q.numerator, q.denominator) == q

    @given(nonzero_rationals(), nonzero_rationals())
    def test_exact_reciprocal(self, a, b):
        assert (a / b) * (b / a) == 1


class TestVariableContext:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            VariableContext([])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            VariableContext(["x", "x"])

    @pytest.mark.parametrize("name", ["2y", "a b", "x-1", "", " x", "x^2", 3])
    def test_rejects_names_the_parser_cannot_read(self, name):
        with pytest.raises(ValueError, match=rf"^bad variable name {re.escape(repr(name))}: "):
            VariableContext(["x", name])

    @pytest.mark.parametrize("name", ["y", "_", "x_1", "Y2", "\u03b8"])
    def test_accepts_names(self, name):
        assert VariableContext(["x", name]).names == ("x", name)

    def test_index(self):
        assert CTX_XYZ.index("y") == 1
        with pytest.raises(ValueError, match="unknown variable"):
            CTX_XYZ.index("w")


class TestMonomial:
    def test_degree(self):
        assert Monomial((2, 1, 3)).degree == 6

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Monomial((1, -1))

    def test_mul_divides_lcm(self):
        a, b = Monomial((2, 1)), Monomial((1, 3))
        assert a * b == Monomial((3, 4))
        assert a.lcm(b) == Monomial((2, 3))
        assert not a.divides(b)
        assert Monomial((1, 1)).divides(a)
        assert a / Monomial((1, 1)) == Monomial((1, 0))
        for derived in (a * b, a.lcm(b), a / Monomial((1, 1))):
            assert type(derived) is Monomial

    def test_quotient_requires_divisibility(self):
        with pytest.raises(ValueError):
            Monomial((1, 0)) / Monomial((0, 1))

    def test_arity_mismatch(self):
        a, b = Monomial((1,)), Monomial((1, 2))
        for op in (a.divides, a.__mul__, a.__truediv__, a.lcm, a.is_coprime_with):
            with pytest.raises(ValueError, match="arity mismatch"):
                op(b)


def _poly(ctx, *terms):
    return Polynomial(ctx, {Monomial(m): Fraction(c) for m, c in terms})


class TestPolynomialBasics:
    def test_zero_is_empty_map(self):
        assert Polynomial.zero(CTX_XY).terms == {}
        assert Polynomial.zero(CTX_XY).is_zero()

    def test_constructor_drops_zeros(self):
        p = Polynomial(CTX_XY, {Monomial((1, 0)): Fraction(0)})
        assert p.is_zero()

    def test_constructor_combines_duplicates(self):
        p = Polynomial(CTX_XY, [((1, 0), 1), ((1, 0), 2)])
        assert p == _poly(CTX_XY, ((1, 0), 3))

    def test_monomial_arity_checked(self):
        with pytest.raises(RingMismatchError):
            Polynomial(CTX_XY, {Monomial((1, 0, 0)): Fraction(1)})

    def test_additive_identity(self):
        p = _poly(CTX_XY, ((1, 0), 1), ((0, 2), 3))
        assert p + Polynomial.zero(CTX_XY) == p

    def test_cancellation(self):
        x = Polynomial.variable(CTX_XY, "x")
        y = Polynomial.variable(CTX_XY, "y")
        assert (x + y) + (x - y) == 2 * x

    def test_full_cancellation(self):
        p = _poly(CTX_XY, ((2, 1), 1))
        assert (p + (-p)).is_zero()

    def test_difference_of_squares(self):
        x = Polynomial.variable(CTX_XY, "x")
        y = Polynomial.variable(CTX_XY, "y")
        assert (x + y) * (x - y) == x * x - y * y

    def test_multiplicative_identity(self):
        p = _poly(CTX_XY, ((1, 2), Fraction(3, 2)), ((0, 0), -1))
        assert p * Polynomial.constant(CTX_XY, 1) == p

    def test_binomial_square(self):
        x = Polynomial.variable(CTX_XY, "x")
        one = Polynomial.constant(CTX_XY, 1)
        assert (x + one) * (x + one) == x**2 + 2 * x + one

    def test_ring_mismatch(self):
        p = Polynomial.variable(CTX_XY, "x")
        q = Polynomial.variable(CTX_XYZ, "x")
        with pytest.raises(RingMismatchError, match="ring mismatch"):
            p + q
        with pytest.raises(RingMismatchError, match="ring mismatch"):
            p * q

    def test_scalar_division(self):
        x = Polynomial.variable(CTX_XY, "x")
        assert (2 * x) / 2 == x
        with pytest.raises(ZeroDivisionError):
            x / 0

    def test_pow(self):
        x = Polynomial.variable(CTX_XY, "x")
        assert x**0 == Polynomial.constant(CTX_XY, 1)
        assert x**3 == x * x * x
        with pytest.raises(ValueError):
            x ** (-1)


class TestRingAxioms:
    @given(polynomials(), polynomials())
    def test_add_commutes(self, p, q):
        assert p + q == q + p

    @given(polynomials(), polynomials())
    def test_mul_commutes(self, p, q):
        assert p * q == q * p

    @given(polynomials(), polynomials(), polynomials())
    def test_add_associates(self, p, q, r):
        assert (p + q) + r == p + (q + r)

    @given(
        polynomials(max_terms=3, max_exponent=3),
        polynomials(max_terms=3, max_exponent=3),
        polynomials(max_terms=3, max_exponent=3),
    )
    def test_mul_associates(self, p, q, r):
        assert (p * q) * r == p * (q * r)

    @given(
        polynomials(max_terms=3, max_exponent=3),
        polynomials(max_terms=3, max_exponent=3),
        polynomials(max_terms=3, max_exponent=3),
    )
    def test_distributive(self, p, q, r):
        assert p * (q + r) == p * q + p * r

    @given(polynomials())
    def test_additive_inverse(self, p):
        assert (p + (-p)).is_zero()

    @given(polynomials(), polynomials())
    def test_no_zero_coefficients_stored(self, p, q):
        for result in (p + q, p - q, p * q, -p):
            assert all(c != 0 for c in result.terms.values())

    @given(polynomials(), polynomials(), st.booleans())
    def test_one_merge_gives_one_answer(self, p, r, cancel):
        # q = r - p cancels every term of p that r does not share
        q = r - p if cancel else r
        fp, fq = format_polynomial(p, GREVLEX), format_polynomial(q, GREVLEX)
        results = [
            Polynomial(CTX_XY, [*p.terms.items(), *q.terms.items()]),
            p + q,
            parse_polynomial(f"({fp}) + ({fq})", CTX_XY),
        ]
        assert results[0] == results[1] == results[2]
        for result in results:
            assert all(c != 0 for c in result.terms.values())
