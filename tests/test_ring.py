import copy
import math
import pickle
import re
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groebnerkit import ring
from groebnerkit.order import GREVLEX
from groebnerkit.parse import format_polynomial, parse_polynomial
from groebnerkit.ring import (
    Monomial,
    Polynomial,
    RingMismatchError,
    Term,
    VariableContext,
    rat_normalize,
)

from reference_ring import ReferencePolynomial
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


def _copies(value):
    """value through every pickle protocol, copy.copy and copy.deepcopy."""
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        yield pickle.loads(pickle.dumps(value, protocol))
    yield copy.copy(value)
    yield copy.deepcopy(value)


@pytest.mark.parametrize(
    "value",
    [CTX_XYZ, VariableContext(["\u03b8", "x_1"]), Term(Fraction(-3, 4), Monomial((2, 0, 1))), Term(5, Monomial((0,)))],
    ids=repr,
)
def test_records_copy_by_value(value):
    for back in _copies(value):
        assert type(back) is type(value)
        assert back == value and hash(back) == hash(value) and repr(back) == repr(value)


class TestVariableContext:
    def test_names_cannot_be_assigned(self):
        ctx = VariableContext(["x", "y"])
        p = parse_polynomial("x^2 - 3*y", ctx)
        with pytest.raises(FrozenInstanceError):
            ctx.names = ("y", "x")
        assert ctx.names == ("x", "y") and format_polynomial(p, GREVLEX) == "x^2 - 3*y"

    def test_parses_alike_after_unpickling(self):
        text = "x^2*z - 3/4*y + 7"
        want = parse_polynomial(text, CTX_XYZ)
        for ctx in _copies(CTX_XYZ):
            got = parse_polynomial(text, ctx)
            assert got == want and hash(got) == hash(want)

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

    def test_iterates_over_its_names(self):
        assert list(CTX_XYZ) == ["x", "y", "z"]


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
        for op in (a.divides, a.__mul__, a.__truediv__, a.lcm):
            with pytest.raises(ValueError, match="arity mismatch"):
                op(b)

    def test_multiplies_only_by_a_monomial(self):
        # A scalar times a monomial is no power product: both sides refuse.
        with pytest.raises(TypeError):
            Monomial((1, 2)) * 2
        with pytest.raises(TypeError):
            2 * Monomial((1, 2))


class TestTerm:
    def test_value_semantics(self):
        a = Term(Fraction(1, 2), Monomial((1, 0)))
        assert a == Term(Fraction(2, 4), Monomial((1, 0)))
        assert hash(a) == hash(Term(Fraction(1, 2), Monomial((1, 0))))
        assert a != Term(Fraction(1, 2), Monomial((0, 1)))
        assert a != Term(1, Monomial((1, 0)))
        assert a != (Fraction(1, 2), Monomial((1, 0)))
        assert repr(a) == "Term(Fraction(1, 2), Monomial((1, 0)))"
        assert type(Term(3, Monomial((0, 0))).coefficient) is Fraction

    def test_rejects_a_zero_coefficient(self):
        with pytest.raises(ValueError, match="term coefficient must be nonzero"):
            Term(0, Monomial((1, 0)))

    def test_fields_cannot_be_assigned(self):
        a = Term(Fraction(1, 2), Monomial((1, 0)))
        for name, value in (("coefficient", Fraction(2)), ("monomial", Monomial((0, 1)))):
            with pytest.raises(FrozenInstanceError):
                setattr(a, name, value)
        assert a == Term(Fraction(1, 2), Monomial((1, 0)))


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

    def test_other_operands_are_refused(self):
        # Only polynomials, ints and Fractions combine with a polynomial.
        p = Polynomial.variable(CTX_XY, "x")
        for op in (lambda: p + "a", lambda: "a" - p, lambda: p * 1.5):
            with pytest.raises(TypeError):
                op()
        assert (p == "a") is False and p != "a"

    def test_scalars_hash_as_the_scalars_they_equal(self):
        for value in (0, 3, Fraction(-5, 7)):
            p = Polynomial.constant(CTX_XY, value)
            assert p == value and hash(p) == hash(value)
            assert value in {p} and p in {value}
        assert hash(Polynomial.zero(CTX_XY)) == hash(0)
        assert Polynomial.variable(CTX_XY, "x") not in {1}

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


class TestSumDenominators:
    """A sum takes its final gcd against the lcm of the gcds its running
    denominator met (``ring._common``): none over the numerators when the
    denominators are pairwise coprime, and still a least result."""

    @pytest.fixture
    def gcds(self, monkeypatch):
        calls = []

        def spy(*args):
            calls.append(args)
            return math.gcd(*args)

        monkeypatch.setattr(ring, "gcd", spy)
        return calls

    def test_coprime_denominators_take_no_numerator_gcd(self, gcds):
        x, y, z = (Polynomial.variable(CTX_XYZ, name) for name in "xyz")
        summands = [(Fraction(1, 3) ** 5 * x, False), (Fraction(1, 5) ** 5 * y, True), (Fraction(1, 7) ** 5 * z, False)]
        gcds.clear()
        total = ring._add(summands)
        # one gcd per summand against the running denominator, none over numerators
        assert gcds == [(1, 3**5), (3**5, 5**5), (15**5, 7**5)]
        assert total == Polynomial(CTX_XYZ, {(1, 0, 0): Fraction(1, 3**5), (0, 1, 0): -Fraction(1, 5**5), (0, 0, 1): Fraction(1, 7**5)})
        gcds.clear()
        assert parse_polynomial("1/3*x + 1/5*y - 1/7*z", CTX_XYZ)._den == 105
        assert all(len(args) == 2 and 105 not in args for args in gcds)

    @pytest.mark.parametrize(
        "text, terms",
        [
            ("1/6*x + 1/10*y + 1/15*z", {(1, 0, 0): Fraction(1, 6), (0, 1, 0): Fraction(1, 10), (0, 0, 1): Fraction(1, 15)}),
            ("1/2*x + 1/2*y - 1/2*x", {(0, 1, 0): Fraction(1, 2)}),
            ("1/4*x + 1/4*x + 1/2*y", {(1, 0, 0): Fraction(1, 2), (0, 1, 0): Fraction(1, 2)}),
            ("1/6*x + 1/10*x + 1/15*x", {(1, 0, 0): Fraction(1, 3)}),
            ("1/6*x + 1/10*x + 1/15*x - 1/3*x", {}),
        ],
    )
    def test_shared_primes_still_cancel(self, text, terms):
        expected = Polynomial(CTX_XYZ, terms)
        x, y, z = (Polynomial.variable(CTX_XYZ, name) for name in "xyz")
        operators = eval(re.sub(r"(\d+)/(\d+)", r"Fraction(\1, \2)", text), {"Fraction": Fraction, "x": x, "y": y, "z": z})
        for total in (parse_polynomial(text, CTX_XYZ), operators):
            assert total == expected
            assert math.gcd(total._den, *total._numerators.values()) == 1

    @given(st.lists(st.tuples(polynomials(), st.booleans()), min_size=1, max_size=5))
    def test_least_over_any_denominators(self, summands):
        total = ring._add(summands)
        assert math.gcd(total._den, *total._numerators.values()) == 1
        expected = ReferencePolynomial(CTX_XY, {})
        for p, negated in summands:
            q = ReferencePolynomial(CTX_XY, p.terms)
            expected = expected - q if negated else expected + q
        assert total.terms == expected.terms


# Exponents at the edges of the packed fields: 127 fits the first width,
# 128 and 255 need twice it, and 65535 more, so operands of different
# widths meet, and so do results, whose widths come from degree bounds.
_EDGES = st.sampled_from([0, 1, 2, 127, 128, 255, 65535])
_WIDE = st.dictionaries(st.tuples(_EDGES, _EDGES).map(Monomial), rationals(), max_size=4)
_SCALARS = st.one_of(st.integers(-6, 6), rationals())


class TestReferenceArithmetic:
    """Polynomial against the reference arithmetic of tests/reference_ring.py:
    the same terms in the same order, equality, hash, repr and pickling."""

    @staticmethod
    def _same(got, want):
        assert list(got.terms.items()) == list(want.terms.items())
        assert all(type(c) is Fraction for c in got.terms.values())
        assert repr(got) == repr(want) and hash(got) == hash(want)
        fresh = Polynomial(got.context, want.terms)  # fields as narrow as its degree asks
        assert got == fresh and fresh == got and hash(fresh) == hash(got)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(got, protocol))
            assert back == got and list(back.terms.items()) == list(want.terms.items())

    @settings(max_examples=150, deadline=None)
    @given(_WIDE, _WIDE, _WIDE, _SCALARS, st.integers(0, 3))
    def test_operations_give_the_reference_terms(self, a, b, c, k, e):
        p, q, r = (Polynomial(CTX_XY, t) for t in (a, b, c))
        rp, rq, rr = (ReferencePolynomial(CTX_XY, t) for t in (a, b, c))
        cases = [
            (p + q, rp + rq), (p - q, rp - rq), (p * q, rp * rq), (-p, -rp), (p**e, rp**e),
            (p + k, rp + k), (k + p, k + rp), (p - k, rp - k), (k - p, k - rp), (p * k, rp * k), (k * p, k * rp),
            (p * q + r, rp * rq + rr), (r - (p * q) ** e, rr - (rp * rq) ** e), ((p + q) * (q - r), (rp + rq) * (rq - rr)),
        ]
        if k:
            cases.append((p / k, rp / k))
        for got, want in cases:
            self._same(got, want)
        assert (p == q) == (rp == rq) and (p * q == q * p) and ((p + q) - q == p)
        assert (p == k) == (rp == k) and (k == p) == (k == rp)

    @given(_WIDE)
    def test_constants_and_zero_hash_as_their_scalars(self, a):
        p = Polynomial(CTX_XY, a)
        constant = p - p + Fraction(next(iter(a.values()), 0))
        assert hash(constant) == hash(ReferencePolynomial(CTX_XY, constant.terms))
        assert constant == next(iter(a.values()), 0)
