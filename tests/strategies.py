"""Shared hypothesis strategies for algebra tests."""

from fractions import Fraction

import hypothesis.strategies as st

from groebnerkit.order import MonomialOrder
from groebnerkit.ring import Monomial, Polynomial, VariableContext

CTX_XY = VariableContext(["x", "y"])
CTX_XYZ = VariableContext(["x", "y", "z"])
CTX_T = VariableContext(["t"])


def rationals(max_magnitude=30, max_denominator=12):
    return st.builds(
        Fraction,
        st.integers(-max_magnitude, max_magnitude),
        st.integers(1, max_denominator),
    )


def nonzero_rationals(max_magnitude=30, max_denominator=12):
    return rationals(max_magnitude, max_denominator).filter(lambda q: q != 0)


def monomials(nvars, max_exponent=4):
    return st.builds(
        Monomial, st.tuples(*[st.integers(0, max_exponent)] * nvars)
    )


def polynomials(ctx=CTX_XY, max_terms=5, max_exponent=4, **coeff_kwargs):
    return st.builds(
        lambda terms: Polynomial(ctx, terms),
        st.dictionaries(
            monomials(len(ctx), max_exponent),
            rationals(**coeff_kwargs),
            max_size=max_terms,
        ),
    )


def nonzero_polynomials(ctx=CTX_XY, **kwargs):
    return polynomials(ctx, **kwargs).filter(lambda p: not p.is_zero())


def orders():
    return st.sampled_from(list(MonomialOrder))


# Texts of the grammar over x, y and z, flat and nested, with operands on
# each side of the parser's limits: zero literals, 0^0 and x^0, literals
# and powers past 2048 bits, degrees past the fields of START_WIDTH bits,
# an unknown name, a zero denominator, a literal past CPython's digit limit.
_LONG = [str(2**2047), str(2**2048 + 1), str(3**2600), "7" * 4301]
_OPERANDS = st.one_of(
    st.integers(0, 12).map(str),
    st.builds("{}/{}".format, st.integers(0, 12), st.integers(1, 4)),
    st.sampled_from("xyz"),
)
_RARE_OPERANDS = st.sampled_from(["w", "0", "3/0", *_LONG])
_EXPONENTS = st.one_of(st.none(), st.integers(0, 4))
_RARE_EXPONENTS = st.sampled_from([127, 128, 255, 256, 1023, 1024, 2047, 2048, 2**16, "\u0663", "-2"])


@st.composite
def grammar_texts(draw, depth):
    """An expr whose factors are operands, or up to depth levels of
    parenthesized exprs, each perhaps raised to a power; one operand or
    exponent in eight or so is one of the rare ones."""
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        factors = []
        for _ in range(draw(st.integers(1, 3))):
            if depth and not draw(st.integers(0, 3)):
                base, e = f"({draw(grammar_texts(depth - 1))})", draw(st.none() | st.integers(0, 3))
            else:
                base = draw(_OPERANDS if draw(st.integers(0, 15)) else _RARE_OPERANDS)
                e = draw(_EXPONENTS if draw(st.integers(0, 7)) else _RARE_EXPONENTS)
            factors.append(base if e is None else f"{base}^{e}")
        terms.append("*".join(factors))
    signs = [draw(st.sampled_from("+-")) for _ in terms[1:]]
    head = "-" if draw(st.booleans()) else ""
    return head + terms[0] + "".join(f" {sign} {t}" for sign, t in zip(signs, terms[1:]))


@st.composite
def corrupted(draw, texts):
    """A text with a piece put in, a character taken out, or its tail cut."""
    text = draw(texts)
    for _ in range(draw(st.integers(1, 2))):
        k = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(["insert", "delete", "truncate"]))
        if edit == "insert":
            piece = draw(st.sampled_from(["(", ")", "$", "/0", "^-2", "/4", "w", "^\u0663", "^", "*", "+", " ", "x", "\u00b2"]))
            text = text[:k] + piece + text[k:]
        elif edit == "delete":
            text = text[:k] + text[k + 1 :]
        else:
            text = text[:k]
    return text
