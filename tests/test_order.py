from fractions import Fraction

import pytest
from hypothesis import given

import hypothesis.strategies as st

from groebnerkit import order as order_module
from groebnerkit.order import (
    GREVLEX,
    GRLEX,
    LEX,
    MonomialOrder,
    Packing,
    leading_term,
)
from groebnerkit.ring import Monomial, Polynomial

from strategies import CTX_XY, CTX_XYZ, monomials, orders


def _cmp(order, a, b):
    """-1, 0 or 1 as a is below, equal to or above b under the order's key."""
    key = order.key_function()
    ka, kb = key(a), key(b)
    return (ka > kb) - (ka < kb)


class TestCompare:
    def test_lex_example(self):
        # x^2*y vs x*y^3: first exponent decides
        assert _cmp(LEX, Monomial((2, 1)), Monomial((1, 3))) == 1

    def test_grlex_example(self):
        # total degrees 3 < 4
        assert _cmp(GRLEX, Monomial((2, 1)), Monomial((1, 3))) == -1

    def test_grevlex_example(self):
        # x*y^2*z vs x^2*z^2: difference (-1, 2, -1), last nonzero negative
        assert _cmp(GREVLEX, Monomial((1, 2, 1)), Monomial((2, 0, 2))) == 1

    @given(orders(), monomials(3))
    def test_reflexive(self, order, m):
        assert _cmp(order, m, m) == 0

    def test_accepts_order_names(self):
        assert MonomialOrder("lex") is LEX
        assert MonomialOrder("grlex") is GRLEX
        assert MonomialOrder("grevlex") is GREVLEX


class TestLeadingTerm:
    def _p(self, terms):
        return Polynomial(CTX_XY, {Monomial(m): Fraction(c) for m, c in terms})

    def test_lex_picks_x(self):
        p = self._p([((1, 0), 1), ((0, 2), 1)])  # x + y^2
        assert leading_term(p, LEX).monomial == Monomial((1, 0))

    def test_grlex_picks_y_squared(self):
        p = self._p([((1, 0), 1), ((0, 2), 1)])
        assert leading_term(p, GRLEX).monomial == Monomial((0, 2))

    def test_lex_three_terms(self):
        p = self._p([((2, 1), 1), ((1, 2), 1), ((0, 2), 1)])
        assert leading_term(p, LEX).monomial == Monomial((2, 1))

    def test_coefficient_exposed(self):
        p = self._p([((2, 0), Fraction(-3, 2)), ((0, 0), 5)])
        term = leading_term(p, GRLEX)
        assert term.coefficient == Fraction(-3, 2)

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError, match="leading term of zero polynomial"):
            leading_term(Polynomial.zero(CTX_XY), LEX)


class TestOrderProperties:
    @given(orders(), monomials(3), monomials(3))
    def test_totality(self, order, a, b):
        c = _cmp(order, a, b)
        assert c in (-1, 0, 1)
        assert (c == 0) == (tuple(a) == tuple(b))
        assert _cmp(order, b, a) == -c

    @given(orders(), monomials(3))
    def test_unit_is_minimal(self, order, m):
        unit = Monomial((0, 0, 0))
        assert _cmp(order, unit, m) <= 0

    @given(orders(), monomials(3), monomials(3), monomials(3))
    def test_multiplicative(self, order, a, b, c):
        assert _cmp(order, a, b) == _cmp(order, a * c, b * c)

    @given(monomials(1), monomials(1))
    def test_univariate_agreement(self, a, b):
        assert _cmp(LEX, a, b) == _cmp(GRLEX, a, b) == _cmp(GREVLEX, a, b)

    @given(monomials(2), monomials(2))
    def test_grlex_equals_grevlex_in_two_variables(self, a, b):
        assert _cmp(GRLEX, a, b) == _cmp(GREVLEX, a, b)


def packed_cases():
    """An order, two monomials of 1 to 4 variables, and a packing of
    that arity wide enough for their product."""

    def for_arity(n):
        return st.tuples(orders(), monomials(n, max_exponent=6), monomials(n, max_exponent=6), st.integers(0, 3))

    def with_packing(case):
        order, a, b, spare = case
        width = max(2, (a * b).degree.bit_length() + 1) + spare
        return order, a, b, order.packing(len(a), width)

    return st.integers(1, 4).flatmap(for_arity).map(with_packing)


def lcm_cases():
    """An order, two monomials of 1 to 5 variables, each exponent 0 half
    the time so that coprime pairs are common, and a packing of that arity
    from the narrowest one their lcm fits, degree field included, to three
    bits wider."""

    def for_arity(n):
        exponents = st.tuples(*[st.just(0) | st.integers(1, 20)] * n).map(Monomial)
        return st.tuples(orders(), exponents, exponents, st.integers(0, 3))

    def with_packing(case):
        order, a, b, spare = case
        lcm = a.lcm(b)
        largest = max(lcm) if order is LEX else lcm.degree
        return order, a, b, order.packing(len(a), max(2, largest.bit_length() + 1) + spare)

    return st.integers(1, 5).flatmap(for_arity).map(with_packing)


class TestPacking:
    def test_refuses_a_field_with_no_room_for_its_guard_bit(self):
        with pytest.raises(ValueError, match="field width must leave room for a guard bit"):
            Packing(LEX, 2, 1)

    @given(packed_cases())
    def test_keys_compare_as_the_order(self, case):
        order, a, b, packing = case
        ka, kb = packing.key(packing.pack(a)), packing.key(packing.pack(b))
        assert (ka > kb) - (ka < kb) == _cmp(order, a, b)

    @given(packed_cases())
    def test_product_is_sum(self, case):
        _, a, b, packing = case
        assert packing.pack(a * b) == packing.pack(a) + packing.pack(b)
        product_key = packing.key(packing.pack(a * b))
        assert product_key == packing.key(packing.pack(a)) + packing.key(packing.pack(b))

    @given(packed_cases())
    def test_mask_test_is_divides(self, case):
        _, a, b, packing = case
        pa, pb = packing.pack(a), packing.pack(b)
        assert packing.divides(pa, pb) == a.divides(b)
        assert packing.divides(pb, pa) == b.divides(a)

    @given(packed_cases())
    def test_round_trips(self, case):
        _, a, _, packing = case
        packed = packing.pack(a)
        assert packed & packing.guards == 0
        assert packing.unkey(packing.key(packed)) == packed
        assert packing.unpack(packed) == a

    @given(lcm_cases())
    def test_lcm_coprime_and_divides_are_the_monomials(self, case):
        order, a, b, packing = case
        pa, pb = packing.pack(a), packing.pack(b)
        lcm = packing.lcm(pa, pb)
        # Equal packed values: a graded packing's degree field is the lcm's
        # degree, recomputed, not the larger of the two degrees.
        assert lcm == packing.pack(a.lcm(b))
        assert lcm & packing.guards == 0
        assert packing.largest(lcm) == (max(a.lcm(b)) if order is LEX else a.lcm(b).degree)
        assert packing.lcm(pb, pa) == lcm
        # Completion's coprimality test: the lcm is the product.
        assert (lcm == pa + pb) == all(x == 0 or y == 0 for x, y in zip(a, b))
        assert packing.divides(pa, pb) == a.divides(b)
        assert packing.divides(pa, lcm) and packing.divides(pb, lcm)

    @given(lcm_cases(), st.integers(1, 3), orders())
    def test_repack_moves_a_monomial_between_widths(self, case, doublings, other):
        # into wider fields of any order, and back
        order, a, _, packing = case
        wider = other.packing(len(a), packing.width << doublings)
        packed = packing.pack(a)
        assert packing.repack(packed, wider) == wider.pack(a)
        assert wider.repack(wider.pack(a), packing) == packed


def table_cases():
    """A monomial of 1 to 5 variables and two packings of that arity, of
    any orders, each from the narrowest width that holds it to three bits
    wider."""

    def for_arity(n):
        return st.tuples(monomials(n, max_exponent=20), orders(), orders(), st.integers(0, 3), st.integers(0, 3))

    def with_packings(case):
        m, source, target, spare, other_spare = case

        def packing(order, spare):
            largest = max(m) if order is LEX else m.degree
            return order.packing(len(m), max(2, largest.bit_length() + 1) + spare)

        return m, packing(source, spare), packing(target, other_spare)

    return st.integers(1, 5).flatmap(for_arity).map(with_packings)


class TestConversionTables:
    @given(table_cases())
    def test_an_entry_is_the_key_in_the_target(self, case):
        m, source, target = case
        table = source.keys_in(target)
        k = source.key(source.pack(m))
        assert table[k] == target.key(target.pack(m))
        assert k in table and table[k] == target.key(target.pack(m))

    def test_one_table_per_target(self):
        source = GREVLEX.packing(3, 5)
        table = source.keys_in(LEX.packing(3, 5))
        assert source.keys_in(LEX.packing(3, 5)) is table
        assert source.keys_in(LEX.packing(3, 8)) is not table
        assert LEX.packing(3, 5).keys_in(source) is not table

    def test_a_full_table_is_emptied_and_stays_right(self, monkeypatch):
        monkeypatch.setattr(order_module, "_TABLE_SIZE", 4)
        # Packings of their own, not the interned ones other tests share.
        source, target = Packing(LEX, 2, 6), Packing(GREVLEX, 2, 7)
        table = source.keys_in(target)
        ms = [Monomial((i, j)) for i in range(4) for j in range(3)]
        for _ in range(2):
            for m in ms:
                assert table[source.key(source.pack(m))] == target.key(target.pack(m))
                assert len(table) <= 4

    def test_a_table_of_wide_fields_holds_fewer_entries(self):
        # Fields of 4096 bits, 512 times START_WIDTH: at most 16384 / 512
        # entries, of about 12,000 bits each.
        source, target = Packing(GREVLEX, 3, 1 << 12), Packing(LEX, 3, 1 << 12)
        table = source.keys_in(target)
        ms = [Monomial((i, j, k)) for i in range(5) for j in range(5) for k in range(4)]
        sizes = []
        for _ in range(2):
            for m in ms:
                assert table[source.key(source.pack(m))] == target.key(target.pack(m))
                sizes.append(len(table))
        assert max(sizes) == 32
        # Fields of START_WIDTH bits keep the full cap.
        narrow = Packing(LEX, 2, 8).keys_in(Packing(GREVLEX, 2, 8))
        keys = [i << 8 | j for i in range(128) for j in range(128)]
        for k in keys:
            narrow[k]
        assert len(narrow) == len(keys) == order_module._TABLE_SIZE
        narrow[128 << 8]
        assert len(narrow) == 1
