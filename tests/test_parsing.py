from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicdyn import QP_GLOBAL, parse_domain, parse_map
from padicdyn.errors import EmptyDomain, PadicDynError, ParseError, ZeroDenominator


def coeffs(poly):
    return poly.coefficients


def test_quadratic_over_linear():
    f = parse_map("(x^2 - 1)/x", 7)
    assert coeffs(f.P) == (Fraction(-1), Fraction(0), Fraction(1))
    assert coeffs(f.Q) == (Fraction(0), Fraction(1))
    assert (f.alpha, f.m, f.n) == (0, 2, 1)


def test_implicit_multiplication():
    f = parse_map("(2x^3 + x^2 + x)/(x^2 + 1)", 3)
    assert coeffs(f.P) == (Fraction(0), Fraction(1), Fraction(1), Fraction(2))
    assert coeffs(f.Q) == (Fraction(1), Fraction(0), Fraction(1))
    g = parse_map("2(x+1)(x-1)", 5)
    assert coeffs(g.P) == (Fraction(-2), Fraction(0), Fraction(2))


def test_whitespace_insensitive():
    a = parse_map("x^2-1", 7)
    b = parse_map("  x ^ 2 - 1 ", 7)
    assert coeffs(a.P) == coeffs(b.P)


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDenominator):
        parse_map("x + 1/0", 5)
    with pytest.raises(ZeroDenominator):
        parse_map("x / (x - x)", 5)


def test_rational_coefficients_cleared():
    # coefficients with p in the denominator are legal and cleared
    f = parse_map("(x^2 - 1/27)/x", 3)
    assert f.P.is_integral() and f.Q.is_integral()
    assert f.alpha == 0
    assert f.eval(1) == Fraction(26, 27)


def test_scalar_extraction():
    f = parse_map("5x", 5)
    assert (f.alpha, f.m, f.n) == (1, 1, 0)


def test_nested_inverse():
    f = parse_map("1/(x^2+1) + x", 5)
    # (x^3 + x + 1)/(x^2 + 1)
    assert coeffs(f.P) == (Fraction(1), Fraction(1), Fraction(0), Fraction(1))
    assert coeffs(f.Q) == (Fraction(1), Fraction(0), Fraction(1))


def test_common_factor_removed():
    f = parse_map("(x^2 - 1)/(x - 1)", 5)
    assert coeffs(f.P) == (Fraction(1), Fraction(1))
    assert coeffs(f.Q) == (Fraction(1),)


@pytest.mark.parametrize(
    "text,offset",
    [
        ("x +", 3),
        ("(x", 2),
        ("x ^ y", 4),
        ("x $ 1", 2),
        ("x^2 x)", 5),
    ],
)
def test_errors_carry_offsets(text, offset):
    with pytest.raises(ParseError) as info:
        parse_map(text, 5)
    assert info.value.offset == offset


@given(st.text(max_size=40))
@settings(max_examples=400)
def test_map_parser_total(text):
    # arbitrary input either parses or raises a library error with offset
    try:
        parse_map(text, 5)
    except ParseError as exc:
        assert isinstance(exc.offset, int)
    except PadicDynError:
        pass


@given(st.text(alphabet="xB Zp()+-*/^0123456789,", max_size=40))
@settings(max_examples=400)
def test_domain_parser_total(text):
    try:
        parse_domain(text, 3)
    except ParseError as exc:
        assert isinstance(exc.offset, int)
    except PadicDynError:
        pass


def test_domain_two_balls():
    X = parse_domain("B(2,-1) + B(5,-1)", 7)
    assert X.base_level == -1
    assert X.keys == frozenset([Fraction(2), Fraction(5)])


def test_domain_difference():
    X = parse_domain("Zp - B(4,-2) - B(5,-2)", 3)
    assert X.keys == frozenset(Fraction(k) for k in (0, 1, 2, 3, 6, 7, 8))


def test_domain_qp_marker():
    assert parse_domain("Qp", 3) == QP_GLOBAL


def test_domain_empty_rejected():
    with pytest.raises(EmptyDomain):
        parse_domain("Zp - Zp", 3)


def test_domain_rational_center():
    X = parse_domain("B(1/3, 0)", 3)
    assert X.keys == frozenset([Fraction(1, 3)])
    assert X.base_level == 0


def test_domain_negative_center_normalizes():
    X = parse_domain("B(-1, -2)", 3)
    assert X.keys == frozenset([Fraction(8)])
