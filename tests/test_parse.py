import functools
import math
import operator
import re
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from groebnerkit import parse, ring
from groebnerkit.order import GRLEX, LEX
from groebnerkit.parse import ParseError, format_polynomial, parse_polynomial, parse_system
from groebnerkit.ring import NAME, Monomial, Polynomial, VariableContext

import reference_parse
from reference_ring import ReferencePolynomial
from strategies import CTX_XY, CTX_XYZ, corrupted, grammar_texts, orders, polynomials


def _p(terms):
    return Polynomial(CTX_XY, {Monomial(m): Fraction(*c) if isinstance(c, tuple) else Fraction(c) for m, c in terms})


class TestParse:
    def test_terms_and_fraction(self):
        got = parse_polynomial("x^2*y + 3/2", CTX_XY)
        assert got == _p([((2, 1), 1), ((0, 0), (3, 2))])

    def test_binomial_square(self):
        got = parse_polynomial("(x+y)^2", CTX_XY)
        assert got == _p([((2, 0), 1), ((1, 1), 2), ((0, 2), 1)])

    def test_unknown_variable(self):
        with pytest.raises(ParseError, match="unknown variable 'z'"):
            parse_polynomial("x^2*z", CTX_XY)

    def test_unary_minus_at_head(self):
        assert parse_polynomial("-x + y", CTX_XY) == _p([((1, 0), -1), ((0, 1), 1)])
        assert parse_polynomial("(-x)^2", CTX_XY) == _p([((2, 0), 1)])

    def test_whitespace_ignored(self):
        assert parse_polynomial(" x ^ 2 * y ", CTX_XY) == _p([((2, 1), 1)])

    def test_zero_exponent(self):
        assert parse_polynomial("x^0", CTX_XY) == _p([((0, 0), 1)])

    @staticmethod
    def _refused_at(text, position):
        with pytest.raises(ValueError, match=rf"more than \d+ units of work \(position {position}\)$") as err:
            parse_polynomial(text, CTX_XY)
        assert not isinstance(err.value, ParseError)

    def test_sum_refused_over_work_budget(self, monkeypatch):
        # a summand costs one unit a term below 2048 bits of the running sum
        monkeypatch.setattr(parse, "MAX_WORK", 3)
        assert parse_polynomial("x + y - 1 - x", CTX_XY) == _p([((0, 1), 1), ((0, 0), -1)])
        self._refused_at("x + y - 1 - x + y", 15)
        # and 1 + (4097 >> 11)**2 = 5 at the 4097 bits of 2^4096*x + y,
        # though y alone is small; the product 2^4096*x costs 5 as well
        big = str(2**4096)
        monkeypatch.setattr(parse, "MAX_WORK", 5 + 5)
        assert len(parse_polynomial(f"{big}*x + y", CTX_XY).terms) == 2
        monkeypatch.setattr(parse, "MAX_WORK", 5 + 5 - 1)
        self._refused_at(f"{big}*x + y", len(big) + 4)

    def test_power_refused_over_term_bound(self, monkeypatch):
        # (x+y)^3 is 1 * (x+y), then (x+y)^2, then (x+y) * (x+y)^2: 2 + 4 + 6
        # pairs, after the 1 unit of x+y; the outer sum adds 4 terms
        monkeypatch.setattr(parse, "MAX_WORK", 13)
        assert parse_polynomial("(x+y)^3", CTX_XY) == _p([((3, 0), 1), ((2, 1), 3), ((1, 2), 3), ((0, 3), 1)])
        # one-term and zero bases cost a unit a step, a bare variable too
        assert parse_polynomial("(2*x)^100", CTX_XY) == _p([((100, 0), 2**100)])
        assert parse_polynomial("(x-x)^100", CTX_XY) == _p([])
        assert parse_polynomial("x^100", CTX_XY) == _p([((100, 0), 1)])
        monkeypatch.setattr(parse, "MAX_WORK", 17)
        assert len(parse_polynomial("x + (x+y)^3", CTX_XY).terms) == 5
        monkeypatch.setattr(parse, "MAX_WORK", 16)
        self._refused_at("x + (x+y)^3", 3)
        monkeypatch.setattr(parse, "MAX_WORK", 12)
        self._refused_at("x + (x+y)^3", 10)
        self._refused_at("(x+y)^3", 6)

    def test_product_refused_over_pair_bound(self, monkeypatch):
        # three sums of 1 unit each; then 2 * 2 pairs, and 2 * 2 again, since
        # (x+y)*(x-y) cancels to two terms
        monkeypatch.setattr(parse, "MAX_WORK", 11)
        assert parse_polynomial("(x+y)*(x-y)*(x+1)", CTX_XY) == _p(
            [((3, 0), 1), ((2, 0), 1), ((1, 2), -1), ((0, 2), -1)]
        )
        monkeypatch.setattr(parse, "MAX_WORK", 10)
        self._refused_at("(x+y)*(x-y)*(x+1)", 12)

    def test_power_refused_over_pair_bound(self, monkeypatch):
        # each square-and-multiply step of __pow__ is priced by its pairs:
        # (x+y)^5 has 6 terms but makes 2 + 4 + 9 + 10 pairs, (x+y)^6 makes
        # 4 + 3 + 9 + 15
        assert list(parse._power_steps(2, 5)) == [(2, 1), (4, 2), (9, 4), (10, 5)]
        assert list(parse._power_steps(2, 6)) == [(4, 2), (3, 2), (9, 4), (15, 6)]
        monkeypatch.setattr(parse, "MAX_WORK", 1 + 25)
        assert len(parse_polynomial("(x+y)^5", CTX_XY).terms) == 6
        self._refused_at("(x+y)^6", 6)
        monkeypatch.setattr(parse, "MAX_WORK", 1 + 25 - 1)
        self._refused_at("(x+y)^5", 6)

    @pytest.mark.parametrize("text", ["x + 1", "x + y + 1"])
    def test_power_makes_the_products_it_is_priced_by(self, text, monkeypatch):
        # Every power of p has all C(k+t-1, t-1) terms, so the pairs that
        # _power_steps prices are those of the products the parser makes.
        value = parse_polynomial(text, CTX_XY)
        made = []
        times = ring._times

        def counting(a, b):
            made.append((len(a._numerators) * len(b._numerators), a._degree + b._degree))
            return times(a, b)

        monkeypatch.setattr(ring, "_times", counting)
        for e in range(41):
            made.clear()
            ring._power(value, e)
            assert made == list(parse._power_steps(len(value._numerators), e))

    def test_refused_over_bit_bound(self, monkeypatch):
        # (2^4096)^2 squares 4096 bits, then multiplies 1 by the square, both
        # at 8192 bits: 1 + 4**2 units each
        big = str(2**4096)
        monkeypatch.setattr(parse, "MAX_WORK", 34)
        assert parse_polynomial(f"{big}^2", CTX_XY) == _p([((0, 0), 2**8192)])
        monkeypatch.setattr(parse, "MAX_WORK", 33)
        self._refused_at(f"{big}^2", len(big) + 1)
        # below 2048 bits an operation costs one unit, whatever its bits
        assert parse_polynomial(f"{2**2047}^2", CTX_XY) == _p([((0, 0), 2**4094)])

    def test_refused_over_pair_bit_bound(self, monkeypatch):
        # 2^4096 * (x+1) pairs 1 * 2 terms at 4098 bits, 5 units a pair
        big = str(2**4096)
        monkeypatch.setattr(parse, "MAX_WORK", 1 + 2 * 5)
        assert len(parse_polynomial(f"{big}*(x+1)", CTX_XY).terms) == 2
        monkeypatch.setattr(parse, "MAX_WORK", 1 + 2 * 5 - 1)
        self._refused_at(f"{big}*(x+1)", len(big) + 1)

    def test_found_sum_refused_at_a_sign(self):
        # coprime denominators multiply, so each summand passes alone but
        # the sum runs to millions of bits
        text = " + ".join(f"(1/{p})^240000*x" for p in (3, 5, 7, 11, 13))
        signs = [i + 1 for i, ch in enumerate(text) if ch == "+"]
        with pytest.raises(ValueError, match=r"units of work \(position (\d+)\)$") as err:
            parse_polynomial(text, CTX_XY)
        assert not isinstance(err.value, ParseError)
        assert int(re.search(r"position (\d+)", str(err.value)).group(1)) in signs

    def test_cheap_inputs_admitted(self):
        # (x+1)*(x-1) cancels to two terms, which a price from term-count
        # bounds would not see
        assert parse_polynomial("((x+1)*(x-1))^40", CTX_XY) == _p([((2, 0), 1), ((0, 0), -1)]) ** 40
        assert parse_polynomial("((x+y)*(x-y))^30", CTX_XY) == _p([((2, 0), 1), ((0, 2), -1)]) ** 30
        # a long flat sum costs its terms, not its length at every sign
        terms = {(k % 71, k // 71): k % 97 + 1 for k in range(5000)}
        text = " + ".join(f"{c}*x^{i}*y^{j}" for (i, j), c in terms.items())
        assert parse_polynomial(text, CTX_XY) == _p(terms.items())

    @given(
        polynomials(max_terms=3, max_exponent=2),
        polynomials(max_terms=3, max_exponent=2),
        st.lists(polynomials(max_terms=3, max_exponent=2), max_size=6),
    )
    def test_coefficient_bit_bound_holds(self, p, q, summands):
        # The bounds the parser charges, measured on its packed values,
        # bound every integer its products, powers and sums hold.
        def within(value, bits):
            return value._den <= 2**bits and all(abs(c) <= 2**bits for c in value._numerators.values())

        a, b, *rest = (p, q, *summands)
        (total_p, scale_p), (total_q, scale_q) = parse._measure(a), parse._measure(b)
        assert within(ring._multiply(a, b), parse._bits(total_p * total_q, scale_p * scale_q))
        for e in range(4):
            assert within(ring._power(a, e), e * parse._bits(total_p, scale_p))
        # the running bound of a sum bounds every partial sum
        bound = parse._measure(a)
        for k, s in enumerate(rest, 1):
            bound = parse._sum_bound(bound, parse._measure(s))
            assert within(ring._add([(v, False) for v in (a, *rest[:k])]), parse._bits(*bound))

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError, match=r"position 4") as err:
            parse_polynomial("x +", CTX_XY)
        assert err.value.position == 4

    @pytest.mark.parametrize(
        "text, position",
        # digits that int() does not read are outside the grammar
        [("x^\u00b2", 3), ("\u00b2*x", 1), ("x + \u00bd", 5), ("3/\u00b2", 3), ("x $ y", 3)],
    )
    def test_character_outside_grammar_carries_position(self, text, position):
        with pytest.raises(ParseError, match=rf"position {position}\)") as err:
            parse_polynomial(text, CTX_XY)
        assert err.value.position == position

    def test_any_decimal_digit_is_an_integer(self):
        # ARABIC-INDIC DIGIT THREE is a decimal digit, read by int() as 3
        assert parse_polynomial("x^\u0663", CTX_XY) == _p([((3, 0), 1)])

    def test_negative_exponent_rejected(self):
        with pytest.raises(ParseError, match="negative exponent"):
            parse_polynomial("x^-2", CTX_XY)

    def test_division_by_variable_rejected(self):
        with pytest.raises(ParseError, match="integer literal"):
            parse_polynomial("3/x", CTX_XY)
        with pytest.raises(ParseError, match="integer literal"):
            parse_polynomial("x/2", CTX_XY)

    def test_zero_denominator_literal(self):
        with pytest.raises(ParseError, match="zero denominator"):
            parse_polynomial("1/0", CTX_XY)

    def test_implicit_multiplication_rejected(self):
        with pytest.raises(ParseError):
            parse_polynomial("2x", CTX_XY)

    def test_unexpected_character(self):
        with pytest.raises(ParseError, match="unexpected character"):
            parse_polynomial("x $ y", CTX_XY)

    def test_unclosed_paren(self):
        with pytest.raises(ParseError, match=r"\)"):
            parse_polynomial("(x + y", CTX_XY)

    def test_nesting_past_the_depth_limit_refused_at_its_paren(self):
        deep = "(" * 300 + "x" + ")" * 300
        with pytest.raises(ParseError, match=rf"deeper than {parse.MAX_DEPTH} \(position 101\)") as err:
            parse_polynomial(deep, CTX_XY)
        assert err.value.position == parse.MAX_DEPTH + 1

    def test_nesting_at_the_depth_limit_parses(self):
        depth = parse.MAX_DEPTH
        assert parse_polynomial("(" * depth + "x" + ")" * depth, CTX_XY) == _p([((1, 0), 1)])
        assert parse_polynomial("-(" * depth + "y" + ")" * depth, CTX_XY) == _p([((0, 1), (-1) ** depth)])

    def test_text_at_the_length_limit_parses(self):
        text = "+".join(["1"] * (parse.MAX_TEXT // 2)) + " "
        assert len(text) == parse.MAX_TEXT
        assert parse_polynomial(text, CTX_XY) == _p([((0, 0), parse.MAX_TEXT // 2)])

    def test_text_past_the_length_limit_refused_before_reading(self):
        text = "#" * (parse.MAX_TEXT + 1)
        message = f"expression of {parse.MAX_TEXT + 1} characters is longer than the limit of {parse.MAX_TEXT}"
        with pytest.raises(ValueError, match=f"^{message}$") as err:
            parse_polynomial(text, CTX_XY)
        assert not isinstance(err.value, ParseError)

    def test_system_rejected_as_a_whole(self):
        with pytest.raises(ParseError):
            parse_system(["x", "y +"], CTX_XY)


# Expression trees: ("num", n, d), ("var", name), ("pow", base, e),
# ("mul", factors) and ("sum", negate_first, [(sign, term), ...]).
_LEAVES = st.one_of(
    st.builds(lambda n, d: ("num", n, d), st.integers(0, 12), st.sampled_from([1, 1, 2, 3, 4])),
    st.sampled_from(CTX_XYZ.names).map(lambda name: ("var", name)),
    # exponents past 2^16 widen the packed fields
    st.builds(lambda name, e: ("pow", ("var", name), e), st.sampled_from(CTX_XYZ.names), st.integers(2**16 - 2, 2**17)),
)
_TREES = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.builds(lambda base, e: ("pow", base, e), children, st.integers(0, 3)),
        st.builds(lambda factors: ("mul", factors), st.lists(children, min_size=2, max_size=3)),
        st.builds(
            lambda negate, terms: ("sum", negate, terms),
            st.booleans(),
            st.lists(st.tuples(st.sampled_from("+-"), children), min_size=1, max_size=3),
        ),
    ),
    max_leaves=8,
)


def _text(node) -> str:
    kind = node[0]
    if kind == "num":
        return f"{node[1]}/{node[2]}" if node[2] != 1 else str(node[1])
    if kind == "var":
        return node[1]
    if kind == "pow":
        return f"{_enclosed(node[1], 'sum', 'mul', 'pow')}^{node[2]}"
    if kind == "mul":
        return "*".join(_enclosed(f, "sum", "mul") for f in node[1])
    (_, first), *rest = node[2]
    return ("-" if node[1] else "") + "".join(
        [_enclosed(first, "sum"), *(f" {sign} {_enclosed(t, 'sum')}" for sign, t in rest)]
    )


def _enclosed(node, *kinds) -> str:
    """node's text, in parentheses if it is of one of kinds."""
    return f"({_text(node)})" if node[0] in kinds else _text(node)


def _evaluate(node, ctx) -> ReferencePolynomial:
    """node by the reference arithmetic, operand by operand as the grammar reads it."""
    kind = node[0]
    if kind == "num":
        return ReferencePolynomial.constant(ctx, Fraction(node[1], node[2]))
    if kind == "var":
        return ReferencePolynomial.variable(ctx, node[1])
    if kind == "pow":
        return _evaluate(node[1], ctx) ** node[2]
    if kind == "mul":
        return functools.reduce(operator.mul, (_evaluate(f, ctx) for f in node[1]))
    (_, first), *rest = node[2]
    total = _evaluate(first, ctx)
    if node[1]:
        total = -total
    for sign, t in rest:
        total = total + _evaluate(t, ctx) if sign == "+" else total - _evaluate(t, ctx)
    return total


class TestPackedEvaluation:
    @settings(max_examples=200, deadline=None)
    @given(_TREES)
    def test_equals_ring_arithmetic_in_term_order(self, tree):
        got = parse_polynomial(_text(tree), CTX_XYZ)
        assert list(got.terms.items()) == list(_evaluate(tree, CTX_XYZ).terms.items())
        # and the denominator it holds is least
        assert math.gcd(got._den, *got._numerators.values()) == 1

    @given(polynomials(max_terms=3), polynomials(max_terms=3))
    def test_products_powers_and_sums_keep_the_denominator_least(self, p, q):
        a, b = parse_polynomial(format_polynomial(p, LEX), CTX_XY), parse_polynomial(format_polynomial(q, LEX), CTX_XY)
        for value in (ring._multiply(a, b), ring._multiply(a, a), ring._power(a, 3), ring._add([(a, False), (b, True)])):
            assert math.gcd(value._den, *value._numerators.values()) == 1

    def test_degree_past_the_field_widens(self):
        # x^65535 fills 16-bit fields; the product needs a 17th bit
        assert parse_polynomial("x^65535*x", CTX_XY) == _p([((65536, 0), 1)])
        big = str(2**70)
        assert parse_polynomial(f"x^{big}*y - y*x^{big}", CTX_XY) == _p([])
        got = parse_polynomial("(x*y)^40000*(x+y)^2", CTX_XY)
        assert list(got.terms.items()) == [
            ((40002, 40000), 1), ((40001, 40001), 2), ((40000, 40002), 1),
        ]

    def test_only_the_operands_widen(self):
        # the power's 26,576-bit fields reach the 1891-term summand only at
        # its sum, and its terms keep their order
        e = 10**1000
        text = "(x+y+z)^60 + " + "(" * 8 + "x" + (f")^{e}") * 8
        got = parse_polynomial(text, CTX_XYZ)
        expanded = parse_polynomial("(x+y+z)^60", CTX_XYZ)
        assert list(got.terms.items()) == [*expanded.terms.items(), ((e**8, 0, 0), 1)]
        assert len(expanded.terms) == 1891

    def test_one_term_result_is_a_reduced_fraction(self):
        got = parse_polynomial("(6/4)^3*x + 0*y", CTX_XY).terms[(1, 0)]
        assert (got.numerator, got.denominator) == (27, 8) and type(got) is Fraction


_GRAMMAR_TEXTS = grammar_texts(0) | grammar_texts(2)


def _outcome(read, text):
    """read(text), or the class, message and position of what it raised."""
    try:
        return read(text)
    except ValueError as err:  # ParseError is one
        return type(err), str(err), getattr(err, "position", None)


def _layout(p):
    return list(p._numerators.items()), p._den, p._degree, p._width


class TestAgainstReference:
    """The one parser loop reads every text as the recursive descent
    before it (reference_parse): the same packed value, or the same error
    at the same position, and under any budget the same acceptance and the
    same refusal."""

    @staticmethod
    def _both(text, budget):
        with mock.patch.object(parse, "MAX_WORK", budget), mock.patch.object(reference_parse, "MAX_WORK", budget):
            want = _outcome(lambda t: reference_parse.parse_polynomial(t, CTX_XYZ), text)
            got = _outcome(lambda t: parse_polynomial(t, CTX_XYZ), text)
        if isinstance(want[0], Polynomial):
            assert isinstance(got, Polynomial), (text, got)
            assert _layout(got) == _layout(want[0]), text
            return want[1]
        assert got == want, text
        return None

    @settings(max_examples=300, deadline=None)
    @given(_GRAMMAR_TEXTS | corrupted(_GRAMMAR_TEXTS))
    @example("x^\u0663 + 0^0 - x^0*0")
    @example("2^3/4")
    @example("3/0 + x")
    @example(f"{2**4096}*x + y")
    # each side of a unit: a product, a sum, a power past 2048 bits
    @example(f"({2**2047}*2) - ({2**2047}*1*x)")
    @example(f"{2**2047} + 1")
    @example(f"1/{2**2046} - 1/3*y")
    @example("3^1023 + 3^1024*x")
    @example("2^2047*x - 2^2048")
    # each side of the fields of START_WIDTH bits
    @example("x^127*y + y^128 - x^255*z + z")
    @example("x^128*y^128 + z^256")
    # plain factors on each side of a parenthesized one, and a plain term of
    # high degree, zero, beside a parenthesized one: it sets the width
    @example("3*x*(x+y)^2*y^2")
    @example("(x) + 0*y^200")
    # past degree 255 after a parenthesized factor, and in a plain term
    @example("2*(x+1)*x^250*y^10")
    @example("y^100*x^100 - (z)*x^300 + 3*y")
    # a unit product, then one of two units, after a '('
    @example("(2^2047)*x*3")
    # plain terms before and after a parenthesized one keep their order
    @example("3*y + (x - y)")
    @example("(x - y) + y - x + y")
    # no units at all: under a budget of -1 the first '*' is refused
    @example("0*x - 0")
    # refused two parentheses deep
    @example("x*((y + (x+y+z)^300))")
    def test_reads_as_the_reference(self, text):
        work = self._both(text, parse.MAX_WORK)
        if work is not None:
            assert self._both(text, work) == work
            self._both(text, work - 1)

    def test_a_flat_span_makes_no_product(self, monkeypatch):
        def times(a, b):
            raise AssertionError("a plain term multiplies no Polynomial")

        monkeypatch.setattr(ring, "_times", times)
        assert parse_polynomial("3/2*x^2*y - 5*z + 1", CTX_XYZ) == Polynomial(
            CTX_XYZ, {(2, 1, 0): Fraction(3, 2), (0, 0, 1): -5, (0, 0, 0): 1}
        )


class TestFormat:
    def test_canonical_print(self):
        # Largest term first under the order, whatever order the terms came in.
        for terms, text in [
            ([((2, 0), 1), ((1, 1), 2), ((0, 2), 1)], "x^2 + 2*x*y + y^2"),
            ([((0, 0), 1), ((2, 0), 1), ((1, 1), 1)], "x^2 + x*y + 1"),
        ]:
            assert format_polynomial(_p(terms), GRLEX) == text

    def test_zero(self):
        assert format_polynomial(Polynomial.zero(CTX_XY), GRLEX) == "0"

    def test_sign_and_fraction_placement(self):
        p = _p([((1, 0), (-3, 2))])
        assert format_polynomial(p, GRLEX) == "-3/2*x"

    def test_interior_minus(self):
        p = _p([((0, 2), 1), ((1, 0), (-1, 2))])
        assert format_polynomial(p, GRLEX) == "y^2 - 1/2*x"

    def test_constant_only(self):
        assert format_polynomial(_p([((0, 0), (3, 2))]), LEX) == "3/2"
        assert format_polynomial(_p([((0, 0), -4)]), LEX) == "-4"

    def test_unit_coefficient_suppressed(self):
        assert format_polynomial(_p([((1, 0), -1)]), LEX) == "-x"

    def test_coefficient_past_digit_limit_names_its_term(self):
        limit = sys.get_int_max_str_digits()
        big = _p([((1, 1), 1), ((1, 0), 2**15000)])
        with pytest.raises(ValueError, match=rf"^coefficient of x longer than {limit} digits \(term 2\)$"):
            format_polynomial(big, LEX)
        constant = _p([((0, 0), (1, 10**5000))])
        with pytest.raises(ValueError, match=rf"^constant term longer than {limit} digits \(term 1\)$"):
            format_polynomial(constant, LEX)

    def test_exponent_past_digit_limit_names_its_term(self):
        limit = sys.get_int_max_str_digits()
        with pytest.raises(ValueError, match=rf"^exponent of y longer than {limit} digits \(term 1\)$"):
            format_polynomial(_p([((1, 10**5000), 1)]), LEX)

    @given(polynomials(), orders())
    def test_round_trip(self, p, order):
        assert parse_polynomial(format_polynomial(p, order), CTX_XY) == p

    @given(st.data(), orders())
    def test_round_trip_over_any_valid_names(self, data, order):
        names = data.draw(st.lists(st.from_regex(NAME, fullmatch=True), min_size=1, max_size=4, unique=True))
        ctx = VariableContext(names)
        p = data.draw(polynomials(ctx, max_exponent=3))
        assert parse_polynomial(format_polynomial(p, order), ctx) == p

    @given(polynomials(), orders())
    def test_canonical_and_deterministic(self, p, order):
        text = format_polynomial(p, order)
        assert text == format_polynomial(p, order)
        # reparse and reformat reproduces the same string
        assert format_polynomial(parse_polynomial(text, CTX_XY), order) == text
