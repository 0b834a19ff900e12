import re
from fractions import Fraction

import pytest
from hypothesis import given

from groebnerkit import parse
from groebnerkit.order import GRLEX, LEX
from groebnerkit.parse import ParseError, format_polynomial, parse_polynomial, parse_system
from groebnerkit.ring import Monomial, Polynomial

from strategies import CTX_XY, orders, polynomials


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

    def test_power_refused_over_term_bound(self, monkeypatch):
        # (x+y)^e has e+1 terms; one-term and zero bases are never refused
        monkeypatch.setattr(parse, "MAX_POWER_TERMS", 10)
        assert len(parse_polynomial("(x+y)^9", CTX_XY).terms) == 10
        assert parse_polynomial("(2*x)^100", CTX_XY) == _p([((100, 0), 2**100)])
        assert parse_polynomial("(x-x)^100", CTX_XY) == _p([])
        with pytest.raises(ValueError, match=r"more than 10 terms \(position 10\)") as err:
            parse_polynomial("x + (x+y)^10", CTX_XY)
        assert not isinstance(err.value, ParseError)

    def test_product_refused_over_pair_bound(self, monkeypatch):
        # (x+y)^2 * (x+y)^3 multiplies 3 * 4 term pairs
        monkeypatch.setattr(parse, "MAX_PRODUCT_PAIRS", 12)
        assert parse_polynomial("(x+y)^2*(x+y)^3", CTX_XY) == parse_polynomial("(x+y)^5", CTX_XY)
        with pytest.raises(ValueError, match=r"more than 12 term pairs \(position 16\)") as err:
            parse_polynomial("(x+y)^2*(x+y)^3*(x+y+1)", CTX_XY)
        assert not isinstance(err.value, ParseError)

    def test_power_refused_over_pair_bound(self, monkeypatch):
        # the largest step inside (x+y)^e multiplies (x+y)^(e//2) by the rest
        monkeypatch.setattr(parse, "MAX_PRODUCT_PAIRS", 12)
        assert len(parse_polynomial("(x+y)^5", CTX_XY).terms) == 6
        message = r"power would multiply more than 12 term pairs \(position 6\)"
        with pytest.raises(ValueError, match=message):
            parse_polynomial("(x+y)^6", CTX_XY)

    def test_refused_over_bit_bound(self, monkeypatch):
        monkeypatch.setattr(parse, "MAX_COEFFICIENT_BITS", 10)
        # 3/2 and x+1 cost 2 bits and 1 bit a power, a bare variable none
        assert parse_polynomial("(3/2)^5*x", CTX_XY) == _p([((1, 0), (243, 32))])
        assert len(parse_polynomial("(x+1)^10", CTX_XY).terms) == 11
        assert parse_polynomial("x^1000", CTX_XY) == _p([((1000, 0), 1)])
        assert parse_polynomial("32*31", CTX_XY) == _p([((0, 0), 992)])
        refused = {
            "(3/2)^6": "power could reach more than 10 coefficient bits (position 6)",
            "y + (x+1)^11": "power could reach more than 10 coefficient bits (position 10)",
            "32*33": "product could reach more than 10 coefficient bits (position 3)",
        }
        for text, message in refused.items():
            with pytest.raises(ValueError, match=re.escape(message)) as err:
                parse_polynomial(text, CTX_XY)
            assert not isinstance(err.value, ParseError)

    def test_refused_over_pair_bit_bound(self, monkeypatch):
        # each budget alone admits these; their pairs times bits do not
        monkeypatch.setattr(parse, "MAX_PAIR_BITS", 20)
        # (x+1)^2 * 3^2 is 3 pairs at 2 + 4 bits; the largest step of
        # (x+1)^3 is 2 * 3 pairs at 3 bits
        assert parse_polynomial("(x+1)^2*3^2", CTX_XY) == parse_polynomial("9*(x+1)^2", CTX_XY)
        assert len(parse_polynomial("(x+1)^3", CTX_XY).terms) == 4
        refused = {
            "(x+1)^2*3^3": "product would cost more than 20 term pairs times coefficient bits (position 8)",
            "(x+1)^4": "power would cost more than 20 term pairs times coefficient bits (position 6)",
        }
        for text, message in refused.items():
            with pytest.raises(ValueError, match=re.escape(message)) as err:
                parse_polynomial(text, CTX_XY)
            assert not isinstance(err.value, ParseError)

    @given(polynomials(max_terms=3, max_exponent=2), polynomials(max_terms=3, max_exponent=2))
    def test_coefficient_bit_bound_holds(self, p, q):
        def within(poly, bits):
            return all(
                abs(c.numerator) <= 2**bits and c.denominator <= 2**bits
                for c in poly.terms.values()
            )

        bits_p, bits_q = parse._coefficient_bits(p), parse._coefficient_bits(q)
        assert within(p * q, bits_p + bits_q)
        for e in range(4):
            assert within(p**e, e * bits_p)

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

    def test_system_rejected_as_a_whole(self):
        with pytest.raises(ParseError):
            parse_system(["x", "y +"], CTX_XY)


class TestFormat:
    def test_canonical_print(self):
        p = _p([((2, 0), 1), ((1, 1), 2), ((0, 2), 1)])
        assert format_polynomial(p, GRLEX) == "x^2 + 2*x*y + y^2"

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

    @given(polynomials(), orders())
    def test_round_trip(self, p, order):
        assert parse_polynomial(format_polynomial(p, order), CTX_XY) == p

    @given(polynomials(), orders())
    def test_canonical_and_deterministic(self, p, order):
        text = format_polynomial(p, order)
        assert text == format_polynomial(p, order)
        # reparse and reformat reproduces the same string
        assert format_polynomial(parse_polynomial(text, CTX_XY), order) == text
