"""Tests for parsing and printing polynomials, skew elements, free terms."""

import math
import random
from fractions import Fraction

import pytest

from randgen import skew_of_parts
from skewgb import textio
from skewgb.field import GF, QQ
from skewgb.poly import DEGLEX, LEX, MONO_ONE, Polynomial, mono
from skewgb.textio import (
    ParseError,
    format_free,
    format_poly,
    format_skew,
    parse_free,
    parse_poly,
    parse_skew,
)

XY = ("x", "y")


def test_parse_poly_basic():
    f = parse_poly("x(2)*x(0) - x(1)")
    assert f.lm() == mono((0, 2, 1), (0, 0, 1))
    assert f.lc() == 1
    assert f.coeff(mono((0, 1, 1))) == -1
    assert f.ordering is LEX


def test_parse_poly_orderings_and_fields():
    f = parse_poly("x(1) + x(0)^2", ordering=DEGLEX)
    assert f.ordering is DEGLEX
    assert f.lm() == mono((0, 0, 2))
    F = GF(7)
    g = parse_poly("8*x(0) + 9", field=F)
    assert g.lc() == F.of(1)
    assert g.coeff(MONO_ONE) == F.of(2)


def test_parse_poly_arithmetic_forms():
    assert parse_poly("(x(0) + 1)^2") == parse_poly("x(0)^2 + 2*x(0) + 1")
    assert parse_poly("2*(x(1) - x(0))*(x(1) + x(0))") == parse_poly(
        "2*x(1)^2 - 2*x(0)^2"
    )
    assert parse_poly("-x(0) + 1/2").coeff(MONO_ONE) == Fraction(1, 2)
    assert parse_poly("x(1) - x(1)").is_zero()
    assert parse_poly("3/4").coeff(MONO_ONE) == Fraction(3, 4)


def test_parse_poly_custom_names():
    f = parse_poly("a(1)*b(0)", names=("a", "b"))
    assert f.lm() == mono((0, 1, 1), (1, 0, 1))
    with pytest.raises(ParseError):
        parse_poly("x(1)", names=("a", "b"))


def test_parse_errors_carry_positions():
    cases = [
        ("x", "expected '('"),
        ("x(", "expected 'num'"),
        ("x(2", "expected ')'"),
        ("q(1)", "unknown variable"),
        ("x(1) x(2)", "trailing input"),
        ("", "expected a term"),
        ("x(-1)", "expected 'num'"),
    ]
    for text, fragment in cases:
        with pytest.raises(ParseError) as err:
            parse_poly(text)
        assert fragment in str(err.value)
        assert "at position" in str(err.value)


@pytest.mark.parametrize("text, message", [
    ("x(²)", "unexpected character '²' (at position 2)"),
    ("٣*x(0)", "unexpected character '٣' (at position 0)"),
    ("Ⅻ(1)", "unexpected character 'Ⅻ' (at position 0)"),
    ("x(0) $", "unexpected character '$' (at position 5)"),
    ("x٣(0)", "unknown variable 'x٣' (at position 0)"),
    ("2x(0)", "trailing input 'x' (at position 1)"),
])
def test_tokenizer_rejects_with_position(text, message):
    # Digits are ASCII only; a name starts with a letter or "_" and goes on
    # over Unicode letters and digits; whitespace is any Unicode space.
    with pytest.raises(ParseError) as err:
        parse_poly(text, names=("x", "_"))
    assert str(err.value) == message


@pytest.mark.parametrize("text, same", [
    ("x(0) + x(1)", "x(0)+x(1)"),
    ("x(0)\x85- 2　*x(1)", "x(0) - 2*x(1)"),
    ("_(0)", "1*_(0)"),
])
def test_tokenizer_parses_edge_inputs(text, same):
    names = ("x", "_")
    assert parse_poly(text, names=names) == parse_poly(same, names=names)


@pytest.mark.parametrize("text, one_name", [
    ("x", True), ("u_1", True), ("_", True), ("é", True), ("x٣", True),
    ("", False), ("x y", False), ("1a", False), ("x(", False), ("²", False),
    ("x,y", False),
])
def test_is_name_is_what_a_generator_can_name(text, one_name):
    # A letter is a name exactly when a generator can name its variable.
    assert textio.is_name(text) is one_name
    try:
        named = parse_poly(f"{text}(1)", names=(text,)) == parse_poly("x(1)")
    except ParseError:
        named = False
    assert named is one_name


def test_parse_skew_twists_past_s():
    assert parse_skew("s*x(0)") == parse_skew("x(1)*s")
    assert parse_skew("s^2*x(0)") == parse_skew("x(2)*s^2")
    assert parse_skew("x(0)*s") != parse_skew("x(1)*s")
    a = parse_skew("(x(1) + x(0))*s^2 - 3")
    assert a.component(2) == parse_poly("x(1) + x(0)")
    assert a.component(0) == parse_poly("-3")
    assert parse_skew("s^3").parts == ((3, parse_poly("1")),)
    assert parse_skew("s*s*s") == parse_skew("s^3")


def test_parse_free():
    f = parse_free("x*y*x - 2*y^3")
    assert f.lm() == (1, 1, 1)
    assert f.lc() == -2
    assert dict(f.terms)[(0, 1, 0)] == 1
    with pytest.raises(ParseError):
        parse_free("x(1)")


def test_power_takes_logarithmically_many_products(monkeypatch):
    calls = []
    mul = textio._BaseAlgebra.mul
    monkeypatch.setattr(textio._BaseAlgebra, "mul",
                        lambda self, a, b: calls.append(1) or mul(self, a, b))
    e = 200000
    f = parse_poly(f"2^{e}")
    assert f == Polynomial.constant(QQ.of(2**e), LEX)
    assert len(calls) <= 2 * math.ceil(math.log2(e)) + 2


def test_power_equals_repeated_product():
    # Square and multiply regroups the product; in the skew and free
    # algebras the factors do not commute, but powers of one element do.
    assert parse_poly("(x(0) + 2*x(1))^5") == parse_poly(
        "*".join(["(x(0) + 2*x(1))"] * 5))
    names = ("x1", "x2")
    assert parse_free("(x1*x2 - x2)^3", names=names) == parse_free(
        "(x1*x2 - x2)*(x1*x2 - x2)*(x1*x2 - x2)", names=names)
    assert parse_skew("(x(1)*s + x(0))^3") == parse_skew(
        "(x(1)*s + x(0))*(x(1)*s + x(0))*(x(1)*s + x(0))")
    assert parse_poly("x(1)^0") == parse_poly("1")


def test_format_poly_frozen():
    pairs = [
        ("x(2)*x(0) - x(1)", "x(2)*x(0) - x(1)"),
        ("-x(0) + 1/2", "-x(0) + 1/2"),
        ("x(1)^3*y(0)^2", "x(1)^3*y(0)^2"),
        ("0", "0"),
        ("-1", "-1"),
        ("x(0) - x(0)", "0"),
    ]
    for text, expect in pairs:
        assert format_poly(parse_poly(text, names=XY), XY) == expect


def test_format_skew_frozen():
    pairs = [
        ("x(0)*s", "x(0)*s"),
        ("x(0)*s^2", "x(0)*s^2"),
        ("(x(1) + x(0))*s^2 - 3", "(x(1) + x(0))*s^2 - 3"),
        ("s^2", "s^2"),
        ("-s", "-s"),
        ("2*s^2", "2*s^2"),
        ("x(1)*s - x(0)", "x(1)*s - x(0)"),
        ("0*s", "0"),
    ]
    for text, expect in pairs:
        assert format_skew(parse_skew(text, names=XY), XY) == expect


def test_format_free_frozen():
    pairs = [
        ("x*y*x - 2*y^3", "-2*y^3 + x*y*x"),
        ("-x + y", "y - x"),
        ("x*x*y*y", "x^2*y^2"),
        ("1", "1"),
        ("x - x", "0"),
    ]
    for text, expect in pairs:
        assert format_free(parse_free(text, names=XY), XY) == expect


def test_format_fallback_names():
    f = parse_poly("a(1)", names=("a", "b", "c"))
    assert format_poly(f) == "x1(1)"
    assert format_poly(f, ("a",)) == "a(1)"


def test_round_trip_random_polys():
    rng = random.Random(515)
    for _ in range(200):
        terms = [
            (
                mono(
                    (rng.randrange(2), rng.randrange(3), rng.randint(1, 2)),
                    (rng.randrange(2), rng.randrange(3), rng.randint(1, 2)),
                ),
                QQ.of(Fraction(rng.randint(-6, 6), rng.randint(1, 4))),
            )
            for _ in range(rng.randint(0, 4))
        ]
        f = Polynomial(terms, LEX)
        assert parse_poly(format_poly(f, XY), names=XY) == f


def test_round_trip_random_skew():
    rng = random.Random(516)
    for _ in range(200):
        parts = {}
        for i in range(rng.randint(0, 2) + 1):
            terms = [
                (
                    mono((rng.randrange(2), rng.randrange(3), 1)),
                    QQ.of(rng.randint(-4, 4)),
                )
                for _ in range(rng.randint(0, 2))
            ]
            f = Polynomial(terms, LEX)
            if f:
                parts[i] = f
        a = skew_of_parts(parts)
        assert parse_skew(format_skew(a, XY), names=XY) == a


def test_round_trip_random_free():
    rng = random.Random(517)
    for _ in range(200):
        from skewgb.letterplace import FreePolynomial

        terms = [
            (
                tuple(rng.randrange(2) for _ in range(rng.randint(0, 4))),
                QQ.of(rng.randint(-4, 4)),
            )
            for _ in range(rng.randint(0, 3))
        ]
        f = FreePolynomial(terms)
        assert parse_free(format_free(f, XY), names=XY) == f
