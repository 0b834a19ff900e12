import copy
import dataclasses
import pickle
import sys
import threading
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings

import hypothesis.strategies as st

from groebnerkit import division
from groebnerkit import groebner
from groebnerkit.division import DivisionResult, divide
from groebnerkit.groebner import (
    GroebnerBasis,
    buchberger,
    groebner_basis,
    normal_form,
    reduce_basis,
    s_polynomial,
)
from groebnerkit.ideal import is_member
from groebnerkit.order import GREVLEX, GRLEX, LEX, Packing, leading_term
from groebnerkit.parse import parse_polynomial, parse_system
from groebnerkit.ring import Polynomial, RingMismatchError, VariableContext

from reference_division import reference_divide
from strategies import CTX_XY, CTX_XYZ, nonzero_polynomials, nonzero_rationals, orders, polynomials

# Coefficients far past one machine word, either sign, so leading
# coefficients are negative about half the time.
WIDE = dict(max_magnitude=10**40, max_denominator=10**20)


def _xy(text):
    return parse_polynomial(text, CTX_XY)


def reconstruct(result, divisors):
    total = result.remainder
    for q, g in zip(result.quotients, divisors):
        total = total + q * g
    return total


class TestWorkedExamples:
    def test_two_divisors(self):
        f = _xy("x^2*y + x*y^2 + y^2")
        divisors = [_xy("x*y - 1"), _xy("y^2 - 1")]
        result = divide(f, divisors, LEX)
        assert result.quotients == (_xy("x + y"), _xy("1"))
        assert result.remainder == _xy("x + y + 1")
        assert reconstruct(result, divisors) == f

    def test_univariate_exact(self):
        f = _xy("x^2 + x")
        result = divide(f, [_xy("x")], LEX)
        assert result.quotients == (_xy("x + 1"),)
        assert result.remainder.is_zero()

    def test_divisor_order_sensitivity(self):
        f = _xy("x*y^2 - x")
        first = divide(f, [_xy("x*y + 1"), _xy("y^2 - 1")], LEX)
        assert first.quotients == (_xy("y"), _xy("0"))
        assert first.remainder == _xy("-x - y")
        assert reconstruct(first, [_xy("x*y + 1"), _xy("y^2 - 1")]) == f

        swapped = divide(f, [_xy("y^2 - 1"), _xy("x*y + 1")], LEX)
        assert swapped.quotients == (_xy("x"), _xy("0"))
        assert swapped.remainder.is_zero()
        assert reconstruct(swapped, [_xy("y^2 - 1"), _xy("x*y + 1")]) == f

    def test_self_division(self):
        f = _xy("x^2*y - 3/2*x + 4")
        result = divide(f, [f], LEX)
        assert result.quotients == (_xy("1"),)
        assert result.remainder.is_zero()

    def test_division_by_constant(self):
        f = _xy("x^2 + 3*y")
        result = divide(f, [_xy("2")], LEX)
        assert result.quotients == (f / 2,)
        assert result.remainder.is_zero()


class TestDivisionResult:
    # Cox, Little and O'Shea's example: quotients x + y and 1, remainder x + y + 1.
    DIVISORS = ("x*y - 1", "y^2 - 1")

    def _divided(self):
        return divide(_xy("x^2*y + x*y^2 + y^2"), [_xy(g) for g in self.DIVISORS], LEX)

    def test_pickles_to_an_equal_result(self):
        result = self._divided()
        copy = pickle.loads(pickle.dumps(result))
        assert copy == result
        assert copy.quotients == (_xy("x + y"), _xy("1"))

    def test_hashes_equal_to_an_equal_result_built_eagerly(self):
        eager = DivisionResult(quotients=[_xy("x + y"), _xy("1")], remainder=_xy("x + y + 1"))
        result = self._divided()
        assert hash(result) == hash(eager)
        assert result == eager and repr(result) == repr(eager)

    def test_refuses_setattr_and_delattr(self):
        result = self._divided()
        for name in ("quotients", "remainder", "_quotients"):
            with pytest.raises(AttributeError):
                setattr(result, name, None)
            with pytest.raises(AttributeError):
                delattr(result, name)
        assert result.remainder == _xy("x + y + 1")
        assert result.quotients == (_xy("x + y"), _xy("1"))

    def test_quotients_are_built_once(self):
        result = self._divided()
        assert result.quotients is result.quotients

    def test_an_unknown_attribute_is_missing(self):
        # Asked before the quotients are first read, and after.
        result = self._divided()
        for _ in range(2):
            assert not hasattr(result, "foo")
            with pytest.raises(AttributeError, match="^'DivisionResult' object has no attribute 'foo'$"):
                result.foo
            result.quotients

    def test_dataclass_fields_and_replace(self):
        result = self._divided()
        assert dataclasses.is_dataclass(result)
        assert [f.name for f in dataclasses.fields(result)] == ["quotients", "remainder"]
        # divide builds the quotients on their first read; replace reads
        # them and goes through the constructor.
        with pytest.raises(AttributeError):
            object.__getattribute__(result, "quotients")
        other = dataclasses.replace(result, remainder=_xy("1"))
        assert other == DivisionResult((_xy("x + y"), _xy("1")), _xy("1"))
        assert object.__getattribute__(result, "quotients") == other.quotients
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.remainder = _xy("1")


def widths_tried(monkeypatch) -> list[int]:
    """Record the field width of every packed pass divide makes."""
    widths = []
    packed = division._divide_packed

    def spy(f, forms, degree, packing):
        widths.append(packing.width)
        return packed(f, forms, degree, packing)

    monkeypatch.setattr(division, "_divide_packed", spy)
    return widths


class TestFieldWidth:
    def test_lex_products_past_the_initial_width_repack(self, monkeypatch):
        # x^3 by x - y^k leaves y^(3k); with k = 2^10 - 1 the inputs fit
        # the first width but the products do not.
        k = 2**10 - 1
        f, divisors = _xy("x^3"), [_xy(f"x - y^{k}")]
        widths = widths_tried(monkeypatch)
        result = divide(f, divisors, LEX)
        assert 3 * k >= 2 ** (widths[0] - 1)
        assert len(widths) > 1
        assert result == reference_divide(f, divisors, LEX)
        assert result.remainder == _xy(f"y^{3 * k}")

    def test_lex_bounds_the_dividend_by_its_degree(self, monkeypatch):
        # Under every order the fields start from the inputs' degree
        # bounds: x^3*y^3*z^3*w^3, of total degree 12, takes the fields of
        # width 6 that degree 12 asks for, though a lex field holds one
        # exponent, here at most 3.
        ctx = VariableContext(["x", "y", "z", "w"])
        f, divisors = parse_polynomial("x*y*z*w + x^3*y^3*z^3*w^3", ctx), [parse_polynomial("x - 1", ctx)]
        widths = widths_tried(monkeypatch)
        result = divide(f, divisors, LEX)
        assert widths == [6]
        assert divisors[0]._form[0].width == 6
        assert result == reference_divide(f, divisors, LEX)

    def test_grevlex_input_exponent_of_a_million(self):
        f = _xy("x^1000000*y + 3*x*y^2 - y")
        divisors = [_xy("x^999999 - y^2"), _xy("y^2 + x")]
        result = divide(f, divisors, GREVLEX)
        assert result == reference_divide(f, divisors, GREVLEX)
        assert reconstruct(result, divisors) == f

    def test_inputs_past_their_fields_are_refused_not_divided(self):
        # Width 3 holds exponents up to 3; x^4 sets a guard bit, which the
        # step that takes it must catch.
        f, g, packing = _xy("x^4 + y"), _xy("x + 1"), LEX.packing(2, 3)
        with pytest.raises(RuntimeError, match="order"):
            division._divide_packed(f, (division._form(g, packing),), 4, packing)


class TestErrors:
    def test_zero_divisor(self):
        with pytest.raises(ValueError, match="zero divisor"):
            divide(_xy("x"), [Polynomial.zero(CTX_XY)], LEX)

    def test_empty_divisor_list(self):
        with pytest.raises(ValueError, match="nonempty"):
            divide(_xy("x"), [], LEX)

    def test_context_mismatch(self):
        g = parse_polynomial("x", CTX_XYZ)
        with pytest.raises(RingMismatchError):
            divide(_xy("x"), [g], LEX)


class TestDivisionProperties:
    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from([CTX_XY, CTX_XYZ]).flatmap(
            lambda ctx: st.tuples(
                polynomials(ctx, max_terms=6, max_exponent=4),
                st.lists(nonzero_polynomials(ctx, max_terms=4, max_exponent=3), min_size=1, max_size=3),
            )
        ),
        orders(),
    )
    def test_equals_reference_kernel(self, inputs, order):
        f, divisors = inputs
        result = divide(f, divisors, order)
        expected = reference_divide(f, divisors, order)
        assert result.quotients == expected.quotients
        assert result.remainder == expected.remainder

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from([CTX_XY, CTX_XYZ]).flatmap(
            lambda ctx: st.tuples(
                polynomials(ctx, max_terms=6, max_exponent=4, **WIDE),
                st.lists(
                    nonzero_polynomials(ctx, max_terms=4, max_exponent=3, **WIDE), min_size=1, max_size=3
                ),
            )
        ),
        orders(),
    )
    def test_equals_reference_kernel_on_wide_coefficients(self, inputs, order):
        f, divisors = inputs
        result = divide(f, divisors, order)
        expected = reference_divide(f, divisors, order)
        assert result.quotients == expected.quotients
        assert result.remainder == expected.remainder

    @settings(max_examples=60, deadline=None)
    @given(
        polynomials(CTX_XYZ, max_terms=5, max_exponent=3),
        st.lists(nonzero_polynomials(CTX_XYZ, max_terms=3, max_exponent=2), min_size=1, max_size=3),
        orders(),
    )
    def test_identity_and_reducedness(self, f, divisors, order):
        result = divide(f, divisors, order)
        assert reconstruct(result, divisors) == f
        lead_monomials = [leading_term(g, order).monomial for g in divisors]
        for m in result.remainder.terms:
            assert not any(lm.divides(m) for lm in lead_monomials)

    @settings(max_examples=60, deadline=None)
    @given(
        nonzero_polynomials(CTX_XY, max_terms=4, max_exponent=3),
        st.lists(nonzero_polynomials(CTX_XY, max_terms=3, max_exponent=2), min_size=1, max_size=3),
        orders(),
    )
    def test_quotient_terms_bounded_by_dividend(self, f, divisors, order):
        result = divide(f, divisors, order)
        key = order.key_function()
        bound = key(leading_term(f, order).monomial)
        for q, g in zip(result.quotients, divisors):
            if q.is_zero():
                continue
            product = q * g
            assert key(leading_term(product, order).monomial) <= bound


def ring_lists(max_size):
    """A ring, and a list of nonzero polynomials in it."""
    return st.sampled_from([CTX_XY, CTX_XYZ]).flatmap(
        lambda ctx: st.lists(nonzero_polynomials(ctx, max_terms=4, max_exponent=3), min_size=1, max_size=max_size)
    )


def completion_lists():
    """Inputs small enough that every completion of them ends quickly."""
    return st.sampled_from([CTX_XY, CTX_XYZ]).flatmap(
        lambda ctx: st.lists(nonzero_polynomials(ctx, max_terms=3, max_exponent=2), min_size=1, max_size=3)
    )


def as_items(p: Polynomial) -> list:
    """p's terms in their stored order, which printing and pickling keep."""
    return list(p.terms.items())


def reference_reduce_basis(basis: GroebnerBasis) -> GroebnerBasis:
    """reduce_basis as lead plus the remainder of the tail, over lc."""
    order, survivors, lms = basis.order, [], []
    for g in basis.generators:
        lm = leading_term(g, order).monomial
        if not any(m.divides(lm) for m in lms):
            survivors.append(g)
            lms.append(lm)
    monic = []
    for g, lm in zip(survivors, lms):
        lead = Polynomial(g.context, {lm: g.terms[lm]})
        tail = g - lead
        if tail:
            tail = divide(tail, survivors, order).remainder
        monic.append((lead + tail) / g.terms[lm])
    return GroebnerBasis(tuple(monic), order, reduced=True)


def added_members(raw: GroebnerBasis, inputs: list) -> list:
    """The members of a raw basis that completion added to its inputs."""
    return [g for g in raw if not any(g is f for f in inputs)]


def s_pairs_vanish(basis: list, order) -> bool:
    """Buchberger's criterion, each S-polynomial divided by the reference."""
    return all(
        reference_divide(s_polynomial(p, q, order), basis, order).remainder.is_zero()
        for i, p in enumerate(basis)
        for q in basis[i + 1:]
    )


class TestCompletionEntries:
    """Completion's and interreduction's entries to the kernel give what
    the Polynomial routes give, term order included."""

    @settings(max_examples=150, deadline=None)
    @given(completion_lists(), orders())
    def test_completion_members_are_monic_and_in_the_ideal(self, basis, order):
        raw = buchberger(basis, order)
        packing = raw._kernel[0]
        reduced = list(reduce_basis(raw))
        for member in added_members(raw, basis):
            assert member.terms[leading_term(member, order).monomial] == 1
            assert normal_form(member, reduced, order).is_zero()
            # The member holds the form converting it would give, but for
            # the bound: _monic's, which its degree bound is not below.
            held_packing, held = member._form
            assert held_packing is packing
            assert held._replace(degree=0) == division._form(member, packing)._replace(degree=0)
            assert held.degree <= member._degree
        assert all(normal_form(g, reduced, order).is_zero() for g in basis)

    @settings(max_examples=60, deadline=None)
    @given(completion_lists(), orders())
    def test_completion_on_wide_coefficients(self, basis, order):
        # Completion works on the inputs' primitive integer forms, so
        # scaling an input by a wide rational changes no member it adds.
        wide = [g * Fraction(10**30 + k, 10**17 + 3 * k) for k, g in enumerate(basis, 1)]
        expected = [as_items(g) for g in added_members(buchberger(basis, order), basis)]
        assert [as_items(g) for g in added_members(buchberger(wide, order), wide)] == expected

    def test_zero_s_polynomial_and_zero_normal_form_give_no_member(self):
        g = _xy("x^2*y - 3*y + 1/2")
        assert s_polynomial(g, 3 * g, GRLEX).is_zero()
        stats = {}
        assert buchberger([g, 3 * g], GRLEX, stats).generators == (g, 3 * g)
        assert (stats["new_members"], stats["zero_reductions"]) == (0, 1)
        # A reduced basis: S(x*y, y^2 - 1/2*x) is 1/2*x^2, which x^2 reduces.
        basis = [_xy("x^2"), _xy("x*y"), _xy("y^2 - 1/2*x")]
        assert not s_polynomial(basis[1], basis[2], GRLEX).is_zero()
        stats = {}
        assert len(buchberger(basis, GRLEX, stats)) == 3
        assert stats["new_members"] == 0

    def test_new_member_enters_the_memo(self, monkeypatch):
        # The S-polynomial is -y^2 - x + 3*y: a negative lead and two
        # tail terms, which the member's form keeps in order.
        basis = [_xy("x^2 - y + 3"), _xy("x*y + 1")]
        raw = buchberger(basis, GREVLEX)
        [member] = [g for g in added_members(raw, basis) if leading_term(g, GREVLEX).monomial == (0, 2)]
        assert as_items(member) == [((0, 2), 1), ((1, 0), 1), ((0, 1), -3)]
        # Each member holds the form that converting it would give, in the
        # completion's packing, the inputs included.
        packing, form = member._form
        assert all(g._form[0] is packing for g in basis)
        assert form == division._form(member, packing)
        converted = []
        form = division._form

        def spy(g, packing):
            converted.append(g)
            return form(g, packing)

        monkeypatch.setattr(division, "_form", spy)
        grown = basis + [member]
        f = _xy("x^2*y + x - 7")  # of no higher degree than the basis
        assert divide(f, grown, GREVLEX) == reference_divide(f, grown, GREVLEX)
        assert converted == []

    def test_completion_and_reduction_convert_only_the_inputs(self, monkeypatch):
        converted = []
        form = division._form

        def spy(g, packing):
            converted.append(g)
            return form(g, packing)

        monkeypatch.setattr(division, "_form", spy)
        gens = [_xy("x^3 - 2*x*y"), _xy("x^2*y - 2*y^2 + x")]
        raw = buchberger(gens, GRLEX)
        assert len(raw) == 5 and converted == gens
        # The raw basis sorts its members; reduce_basis converts none of
        # them, and queries against the reduced basis convert none either.
        reduced = reduce_basis(raw)
        f = _xy("x^2*y + 3*y - 1")
        assert normal_form(f, list(reduced), GRLEX) == reference_divide(f, list(reduced), GRLEX).remainder
        assert converted == gens

    def test_lex_s_pair_past_the_memo_width_repacks(self, monkeypatch):
        # y - z^3 turns x - y^3 into x - z^9, and that turns x^2 - z into
        # z^18 - z: past the fields of width 4 that degree 3 asks for.
        basis = [parse_polynomial(t, CTX_XYZ) for t in ("x - y^3", "y - z^3", "x^2 - z")]
        tried = []
        reduce = division._reduce

        def spy(p, forms, degree, packing, steps, below=None):
            records = reduce(p, forms, degree, packing, steps, below)
            tried.append((packing.width, records is None))
            return records

        monkeypatch.setattr(groebner, "_reduce", spy)
        raw = buchberger(basis, LEX)
        overflow = tried.index((4, True))
        assert tried[overflow + 1] == (8, False)
        monkeypatch.undo()
        members = [as_items(g) for g in added_members(raw, basis)]
        assert [((0, 0, 18), 1), ((0, 0, 1), -1)] in members
        assert s_pairs_vanish(list(raw), LEX)

    @settings(max_examples=150, deadline=None)
    @given(ring_lists(5), orders())
    def test_interreduction_is_lead_plus_reduced_tail(self, generators, order):
        basis = GroebnerBasis(tuple(generators), order, reduced=False)
        expected = reference_reduce_basis(basis)
        result = reduce_basis(basis)
        assert [as_items(g) for g in result] == [as_items(g) for g in expected]


class TestDivisorMemo:
    """Divisor forms are reused by object identity, in any order, never
    by value."""

    def test_every_reuse_pattern_matches_the_reference(self, monkeypatch):
        converted = []
        form = division._form

        def spy(g, packing):
            converted.append(g)
            return form(g, packing)

        monkeypatch.setattr(division, "_form", spy)

        def check(f, divisors, order, conversions):
            converted.clear()
            result = divide(f, divisors, order)
            assert result == reference_divide(f, divisors, order)
            assert len(converted) == conversions

        g1, g2, g3 = _xy("2*x*y - 3/5"), _xy("-7/3*y^2 + x"), _xy("x^2 - 5*y")
        f = _xy("x^3*y^2 - 4/9*x*y + 11")
        check(f, [g1, g2], GREVLEX, 2)
        check(f, [g1, g2], GREVLEX, 0)  # the same list again
        check(_xy("3*x^2*y^3 + y"), [g1, g2], GREVLEX, 0)  # another dividend
        check(f, [g1, g2, g3], GREVLEX, 1)  # the list grown at its end
        check(f, [g3, g1, g2], GREVLEX, 0)  # the same polynomials reordered
        g4 = _xy("y^3 - x*y")
        check(f, [g2, g4, g3, g1], GREVLEX, 1)  # reordered, with one new member
        equal = _xy("2*x*y - 3/5")
        assert equal == g1 and equal is not g1
        check(f, [g3, equal, g2], GREVLEX, 1)  # a member replaced by an equal value
        check(f, [g3, equal, g2], LEX, 3)  # a different order
        # x^3 by x - y^k leaves y^(3k): past the first width, so the division
        # starts again, twice as wide, on the list's forms repacked, not
        # converted again.
        k = 2**10 - 1
        wide = [_xy(f"x - y^{k}"), g1]
        check(_xy("y^2"), wide, LEX, 2)
        check(_xy("x^3"), wide, LEX, 0)
        check(_xy("x^2*y + 1"), wide, LEX, 0)  # the wider fields are kept

    def test_threads_sharing_the_memo_get_their_own_results(self):
        # Each thread divides by its own lists, which share members, so
        # every call may replace a form another thread is reading.
        shared = [_xy("3*x*y - 2"), _xy("5/7*y^2 + x")]
        lists = [shared, shared + [_xy("x^2 - y")], [_xy("-4*x + 9/2*y")] + shared]
        jobs = [(_xy(f"x^3*y^2 + {k}*x*y - 1/{k + 2}"), divisors, order)
                for k, divisors in enumerate(lists) for order in (GREVLEX, LEX)]
        expected = [reference_divide(*job) for job in jobs]
        wrong = []
        done = []

        def work(offset):
            for n in range(40):
                i = (n + offset) % len(jobs)
                if divide(*jobs[i]) != expected[i]:
                    wrong.append(i)
            done.append(offset)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(offset,)) for offset in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(done) == [0, 1, 2, 3]
        assert wrong == []


class TestHeldForms:
    """Each polynomial holds its form from its last conversion or from the
    kernel build that made it; the form is no part of its value."""

    @pytest.fixture
    def converted(self, monkeypatch):
        converted = []
        form = division._form

        def spy(g, packing):
            converted.append(g)
            return form(g, packing)

        monkeypatch.setattr(division, "_form", spy)
        return converted

    def test_queries_rotating_over_bases_convert_only_on_the_first_pass(self, converted):
        systems = [
            ["x^2 + y^2 - 4", "x*y - 1"],
            ["x^3 - 2*x*y", "x^2*y - 2*y^2 + x"],
            ["x^2 - 3/2*y + 1", "y^2 - x*y - 5"],
        ]
        bases = [groebner_basis(parse_system(system, CTX_XY), GREVLEX) for system in systems]
        # The last query is of higher degree than any member, so the first
        # pass widens the fields of each basis once.
        queries = [_xy("x^2*y - 3*x + 1/2"), _xy("x*y^2 + y - 7"), _xy("x^9*y^8 - x")]
        counts = []
        for _ in range(3):
            converted.clear()
            for basis in bases:
                for q in queries:
                    expected = reference_divide(q, list(basis.generators), GREVLEX).remainder
                    assert normal_form(q, list(basis.generators), GREVLEX) == expected
            counts.append(len(converted))
        assert counts[0] > 0 and counts[1:] == [0, 0]

    def test_reducing_a_constructed_basis_converts_only_in_the_constructor(self, converted):
        # x - y^3's tail reduces to z^9, past the fields of width 4 that
        # degree 3 asks for: interreduction widens them by repacking the
        # forms the constructor made, not by converting the members again.
        generators = parse_system(["x - y^3", "y - z^3"], CTX_XYZ)
        basis = GroebnerBasis(generators, LEX, reduced=False)
        assert len(converted) == 2
        reduced = reduce_basis(basis)
        assert len(converted) == 2
        assert list(reduced) == parse_system(["y - z^3", "x - z^9"], CTX_XYZ)

    def test_a_fresh_and_a_held_divisor_divide_in_one_packing(self, monkeypatch):
        # Converted or not, u*v*w*x*y*z - 1 is bounded by its degree 6,
        # which asks for fields of width 5 under lex too, though each of
        # them holds one exponent, at most 1: the held form in them is used
        # as it is, and the fresh divisor is converted into them.
        context = VariableContext(["u", "v", "w", "x", "y", "z"])
        fresh, held = (parse_system(["u*v*w*x*y*z - 1", "u - 2"], context) for _ in range(2))
        packing = LEX.packing(6, 5)
        form = division._form(held[0], packing)
        held[0]._form = (packing, form)
        f = parse_polynomial("u + v", context)
        widths = widths_tried(monkeypatch)
        results = [divide(f, divisors, LEX) for divisors in (fresh, held)]
        assert widths == [5, 5]
        assert held[0]._form[1] is form
        assert results[0] == results[1] == reference_divide(f, fresh, LEX)
        assert fresh[0]._form[0] is held[0]._form[0] is packing

    @pytest.mark.parametrize("call", [
        lambda gs, order: divide(gs[1] + 2, gs, order),
        lambda gs, order: normal_form(gs[1] + 2, gs, order),
        lambda gs, order: list(GroebnerBasis(gs, order, reduced=False)),
        lambda gs, order: list(buchberger(gs, order)),
        lambda gs, order: list(groebner_basis(gs, order)),
    ], ids=["divide", "normal_form", "GroebnerBasis", "buchberger", "groebner_basis"])
    @pytest.mark.parametrize("second", [LEX, GRLEX, GREVLEX], ids=lambda order: order.value)
    @pytest.mark.parametrize("first", [LEX, GRLEX, GREVLEX], ids=lambda order: order.value)
    def test_a_form_held_under_another_order_is_converted_again(self, first, second, call):
        # Under lex a field holds one exponent, so a*b*...*h - 1 holds a
        # form in fields too narrow for its total degree 8, which a graded
        # order needs.
        context = VariableContext(list("abcdefgh"))

        def system():
            return parse_system(["a*b*c*d*e*f*g*h - 1", "a - 2"], context)

        held = system()
        divide(parse_polynomial("a", context), held, first)
        assert call(held, second) == call(system(), second)

    @pytest.mark.parametrize("order", [LEX, GRLEX, GREVLEX], ids=lambda order: order.value)
    @given(nonzero_polynomials(CTX_XYZ))
    @example(_xy("x^2 + x + y^5 + y^2"))
    def test_an_unconverted_polynomial_is_bounded_as_its_form(self, order, g):
        # Held or not, a divisor is bounded by its degree bound under every
        # order: 5 for x^2 + x + y^5 + y^2, not 7, the largest field of its
        # terms' OR.
        g = copy.copy(g)  # holding no form
        _, degree, (form,) = division._held([g], order, 0)
        assert degree == form.degree == g._degree
        assert g._form[1] is form
        _, degree, (held,) = division._held([g], order, 0)
        assert held is form and degree == g._degree

    def test_alternating_orders_repack_nothing_after_the_first_calls(self, monkeypatch):
        # The one _form slot converts the divisors again on every switch,
        # but through the packings' tables, which the first call in each
        # order filled.
        gs = [_xy("2*x*y - 3/5"), _xy("-7/3*y^2 + x")]
        q = _xy("x^3*y^2 - 4/9*x*y + 11")
        orders = [GREVLEX, LEX] * 3
        expected = [reference_divide(q, gs, order) for order in orders]
        assert [divide(q, gs, order) for order in orders[:2]] == expected[:2]
        repacked = []
        repack = Packing.repack

        def spy(packing, packed, other):
            repacked.append(packed)
            return repack(packing, packed, other)

        monkeypatch.setattr(Packing, "repack", spy)
        results = [divide(q, gs, order) for order in orders]
        for result in results:
            result.quotients  # built on first read
        assert repacked == []
        # Kernel-built results hold the fields of their degree, as the
        # reference's do, so comparing them repacks nothing either.
        assert results == expected
        assert repacked == []

    def test_a_polynomial_holding_a_form_is_the_same_value(self):
        # g holds a form as a divisor, f a division as a dividend.
        g, f = _xy("2*x*y - 3/5"), _xy("x^2*y + 1")
        divide(f, [g], GREVLEX)
        assert g._form is not None and f._division is not None
        for held, fresh in [(g, _xy("2*x*y - 3/5")), (f, _xy("x^2*y + 1"))]:
            assert fresh._form is None and fresh._division is None
            assert held == fresh and hash(held) == hash(fresh) and repr(held) == repr(fresh)
            copies = [pickle.loads(pickle.dumps(held, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
            assert all(pickle.dumps(held, protocol) == pickle.dumps(fresh, protocol)
                       for protocol in range(pickle.HIGHEST_PROTOCOL + 1))
            for twin in [*copies, copy.copy(held), copy.deepcopy(held)]:
                assert twin == held and hash(twin) == hash(held) and repr(twin) == repr(held)
                assert twin._form is None and twin._division is None

    def test_bases_and_results_of_held_forms_pickle_by_value(self):
        basis = groebner_basis(parse_system(["x^3 - 2*x*y", "x^2*y - 2*y^2 + x"], CTX_XY), GRLEX)
        result = divide(_xy("x^3*y^2 - 4/9*x*y + 11"), list(basis.generators), GRLEX)
        assert all(g._form is not None for g in basis)
        assert pickle.loads(pickle.dumps(basis)) == basis
        assert pickle.loads(pickle.dumps(result)) == result


def _terms(*max_exponents: int):
    """Polynomials in x, y, z of at most two terms, with each exponent at
    most its max_exponents entry."""
    monomial = st.tuples(*(st.integers(0, e) for e in max_exponents))
    return st.dictionaries(monomial, nonzero_rationals(9, 4), max_size=2).map(lambda terms: Polynomial(CTX_XYZ, terms))


def chain_systems():
    """Lex systems x - y^a + t1, y - z^b + t2, x^2 + t3 over x > y > z,
    a and b in 4..7 and small tails t1 in y and z, t2 and t3 in z, with a
    dividend x^2 + q, q of degree at most 1 in x. Their degree asks for
    fields that hold exponents up to 15, but x^2 reduces to z^(2ab) and
    y^a to z^(ab), at least z^16, so dividing x^2 + q, interreducing the
    first two and completing the three each outgrow the fields and widen
    them."""
    x, y, z = (parse_polynomial(v, CTX_XYZ) for v in "xyz")
    return st.tuples(
        st.integers(4, 7), st.integers(4, 7), _terms(0, 2, 2), _terms(0, 0, 3), _terms(0, 0, 3), _terms(1, 2, 2)
    ).map(lambda d: ([x - y ** d[0] + d[2], y - z ** d[1] + d[3], x * x + d[4]], x * x + d[5]))


class TestWidening:
    """One step, ``_widened``, doubles the fields and repacks the forms."""

    @pytest.mark.parametrize("order", [LEX, GRLEX, GREVLEX])
    def test_widened_forms_are_the_forms_converted_in_the_wider_fields(self, order):
        polys = parse_system(["3*x^2*y - 1/2*z^3 + y", "-5/7*z^4 + x*y*z - 2", "y^3 - x^2 + 4*z"], CTX_XYZ)
        packing = order.packing(3, 5)
        forms = [division._form(g, packing) for g in polys]
        wider, widened = division._widened(packing, forms)
        assert (wider.order, wider.nvars, wider.width) == (order, 3, 10)
        # Tail order included: a _Form compares its tail as a list.
        assert widened == [division._form(g, wider) for g in polys]
        # In fields of a given width, narrower ones included.
        assert division._widened(wider, widened, 5) == (packing, forms)

    @settings(max_examples=40, deadline=None)
    @given(chain_systems())
    def test_every_entry_widens_and_matches_the_reference(self, system):
        basis, f = system
        overflows = []
        reduce = division._reduce

        def spy(p, forms, degree, packing, steps, below=None):
            records = reduce(p, forms, degree, packing, steps, below)
            overflows[-1] += records is None
            return records

        def run(entry, *args):
            overflows.append(0)
            with mock.patch.object(division, "_reduce", spy), mock.patch.object(groebner, "_reduce", spy):
                return entry(*args)

        # Copies hold no form, so no entry starts in fields another widened.
        def fresh():
            return [copy.copy(g) for g in basis]

        result = run(divide, f, fresh(), LEX)
        reduced = run(reduce_basis, GroebnerBasis(fresh()[:2], LEX, reduced=False))
        raw = run(buchberger, fresh(), LEX)
        assert all(overflows), overflows
        assert result == reference_divide(f, basis, LEX)
        expected = reference_reduce_basis(GroebnerBasis(basis[:2], LEX, reduced=False))
        assert [as_items(g) for g in reduced] == [as_items(g) for g in expected]
        assert s_pairs_vanish(list(raw), LEX)


class TestDividendMemo:
    """A dividend keeps its last division, keyed on the order and the
    identity of the divisors: the same polynomial divided by the same
    objects again under the same order runs no kernel, whatever was
    converted or widened in between, and anything else runs it."""

    @pytest.fixture
    def runs(self, monkeypatch):
        runs = []
        packed = division._divide_packed

        def spy(f, forms, degree, packing):
            runs.append(f)
            return packed(f, forms, degree, packing)

        monkeypatch.setattr(division, "_divide_packed", spy)
        return runs

    def test_a_query_divides_once(self, runs):
        basis = groebner_basis(parse_system(["x^3 - 2*x*y", "x^2*y - 2*y^2 + x"], CTX_XY), GREVLEX)
        divisors = list(basis.generators)
        f = _xy("x^3*y^2 - 4/9*x*y + 11")
        member = is_member(f, basis)
        remainder = normal_form(f, divisors, basis.order)
        result = divide(f, divisors, basis.order)
        assert runs == [f]
        expected = divide(copy.copy(f), divisors, basis.order)
        assert len(runs) == 2
        assert result == expected == reference_divide(f, divisors, GREVLEX)
        assert remainder == expected.remainder and member == expected.remainder.is_zero()

    def test_a_kept_division_reads_no_term(self, runs, monkeypatch):
        basis = groebner_basis(parse_system(["x^3 - 2*x*y", "x^2*y - 2*y^2 + x"], CTX_XY), GREVLEX)
        f = _xy("x^3*y^2 - 4/9*x*y + 11")
        scans = []
        held = division._held

        def spy(divisors, order, degree):
            scans.append(divisors)
            return held(divisors, order, degree)

        monkeypatch.setattr(division, "_held", spy)
        member = is_member(f, basis)
        assert len(scans) == 1 and runs == [f]
        del scans[:]
        remainder = normal_form(f, list(basis.generators), basis.order)
        assert scans == [] and runs == [f]
        assert member == remainder.is_zero()

    def test_another_list_or_order_divides_again(self, runs):
        g1, g2 = _xy("2*x*y - 3/5"), _xy("-7/3*y^2 + x")
        f = _xy("x^3*y^2 - 4/9*x*y + 11")
        calls = [
            ([g1, g2], GREVLEX, 1),
            ([g1, g2], GREVLEX, 0),  # the same list again
            ([g2, g1], GREVLEX, 1),  # permuted
            ([g1, g2], GREVLEX, 1),  # the first list, after the permuted one
            ([g1, g2], LEX, 1),  # another order
            ([g1, g2], GREVLEX, 1),  # back, with the forms converted again
            ([copy.copy(g1), copy.copy(g2)], GREVLEX, 1),  # equal fresh copies
            ([g1], GREVLEX, 1),  # a shorter list of the same forms
        ]
        for divisors, order, kernel_runs in calls:
            runs.clear()
            assert divide(f, divisors, order) == reference_divide(f, divisors, order)
            assert len(runs) == kernel_runs, (divisors, order)

    @settings(max_examples=10, deadline=None)
    @given(chain_systems())
    def test_a_widening_in_between_keeps_the_result(self, system):
        # Copies hold no form, so no example starts in fields another widened.
        divisors, f = [copy.copy(g) for g in system[0]], system[1]
        z = parse_polynomial("z", CTX_XYZ)  # no lead divides z, so it never widens
        runs = []
        packed = division._divide_packed

        def spy(*args):
            runs.append(args[0])
            return packed(*args)

        with mock.patch.object(division, "_divide_packed", spy):
            kept = divide(z, divisors, LEX)
            assert runs == [z]
            # f's division outgrows the fields and widens the list's forms.
            result = divide(f, divisors, LEX)
            assert len(runs) > 2 and runs[1:] == [f] * (len(runs) - 1)
            del runs[:]
            # The divisors are the same objects, so each dividend's kept
            # result is returned, z's from before the widening too.
            assert divide(f, divisors, LEX) is result and divide(z, divisors, LEX) is kept
            assert runs == []
        assert result == reference_divide(f, divisors, LEX)
        assert kept == reference_divide(z, divisors, LEX)



def _loosened(p: Polynomial, kind: int) -> Polynomial:
    """A new value with a degree bound past its degree, or not: p itself
    (0); p plus x^200 - x^200, of bound 200 (1); p plus b - b, b the lex
    kernel's x^64 + x^63*y, of bound 128 (2); x^200 - x^200 + y (3); or
    b (4)."""
    cancelled = parse_polynomial("x^200 - x^200 + y", CTX_XYZ)
    built = divide(parse_polynomial("x^64 + x^63*y", CTX_XYZ), [parse_polynomial("z", CTX_XYZ)], LEX).remainder
    y = parse_polynomial("y", CTX_XYZ)
    return [Polynomial(CTX_XYZ, p.terms), p + (cancelled - y), p + (built - built), cancelled, built][kind]


def loose_recipes(kinds: int = 5):
    """Arguments of _loosened: a small polynomial in x, y, z and one of the
    first kinds."""
    return st.tuples(nonzero_polynomials(CTX_XYZ, max_terms=3, max_exponent=2), st.integers(0, kinds - 1))


class TestLooseBounds:
    """A value's degree bound can exceed its degree: the bound of a sum is
    its summands' largest, and the lex kernel bounds what it builds by the
    sum of the fields of its terms' OR. The kernel sizes its fields by the
    bounds alone, and every entry gives the results of tight bounds."""

    def test_the_values_are_loose(self):
        p = parse_polynomial("x*z - 1", CTX_XYZ)
        values = [_loosened(p, kind) for kind in range(5)]
        assert [g._degree for g in values] == [2, 200, 128, 200, 128]
        assert values[1] == values[2] == p
        assert values[3] == parse_polynomial("y", CTX_XYZ)
        assert values[4] == parse_polynomial("x^64 + x^63*y", CTX_XYZ)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(loose_recipes(), min_size=1, max_size=3),
        loose_recipes(),
        orders(),
        st.lists(st.none() | st.tuples(st.integers(0, 2), orders()), min_size=3, max_size=3),
    )
    def test_division_tries_the_bound_or_a_wider_held_packing(self, recipes, recipe, order, held):
        def inputs():
            return _loosened(*recipe), [_loosened(*r) for r in recipes]

        f, divisors = inputs()
        # Forms in fields that hold each divisor, or wider, some of them
        # under another order.
        for g, h in zip(divisors, held):
            if h is not None:
                packing = h[1].packing(3, division._room(g._degree) + h[0])
                g._form = (packing, division._form(g, packing))
        bound = max(f._degree, *(g._degree for g in divisors))
        wider = [g._form[0].width for g in divisors if g._form and g._form[0].order is order]
        widths = []
        packed = division._divide_packed

        def spy(f, forms, degree, packing):
            widths.append(packing.width)
            return packed(f, forms, degree, packing)

        with mock.patch.object(division, "_divide_packed", spy):
            result = divide(f, divisors, order)
        assert widths[0] == max([division._room(bound), *wider])
        expected = reference_divide(f, divisors, order)
        assert result == expected
        f, divisors = inputs()
        assert normal_form(f, divisors, order) == expected.remainder

    # x^64 + x^63*y itself, completed with small inputs, can give hundreds
    # of members, so completion meets its bound only through p + b - b.
    @settings(max_examples=40, deadline=None)
    @given(st.lists(loose_recipes(4), min_size=1, max_size=3), orders())
    def test_completion_and_reduction_give_what_tight_bounds_give(self, recipes, order):
        loose = [_loosened(*r) for r in recipes]
        tight = [Polynomial(CTX_XYZ, g.terms) for g in loose]
        raw = buchberger(loose, order)
        assert [as_items(g) for g in raw] == [as_items(g) for g in buchberger(tight, order)]
        reduced = reduce_basis(raw)
        assert all(reference_divide(g, list(reduced), order).remainder.is_zero() for g in loose)
        items = [as_items(g) for g in reduced]
        assert items == [as_items(g) for g in reference_reduce_basis(raw)]
        assert items == [as_items(g) for g in reduce_basis(buchberger(tight, order))]
