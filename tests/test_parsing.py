from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_domains import level_balls
from test_polynomials import padd, pderiv, pmul, pscale, trimmed

from padicdyn import QP_GLOBAL, normalize_map, parse_domain, parse_map
from padicdyn.errors import EmptyDomain, PadicDynError, ParseError, ZeroDenominator
from padicdyn.maps import RationalMap
from padicdyn.padics import fraction_valuation
from padicdyn import parsing
from padicdyn.parsing import _tokenize


def test_quadratic_over_linear():
    f = parse_map("(x^2 - 1)/x", 7)
    assert f.P == (-1, 0, 1)
    assert f.Q == (0, 1)
    assert (f.alpha, f.m, f.n) == (0, 2, 1)
    assert f.t1 == (1, 0, 1)  # (2x)x - (x^2 - 1)


def test_implicit_multiplication():
    f = parse_map("(2x^3 + x^2 + x)/(x^2 + 1)", 3)
    assert f.P == (0, 1, 1, 2)
    assert f.Q == (1, 0, 1)
    g = parse_map("2(x+1)(x-1)", 5)
    assert g.P == (-2, 0, 2)


def test_coefficients_are_plain_ints():
    f = parse_map("(x^2 - 1/27)/(x/2)", 3)
    assert all(type(c) is int for c in f.P + f.Q + f.t1)


def test_whitespace_insensitive():
    a = parse_map("x^2-1", 7)
    b = parse_map("  x ^ 2 - 1 ", 7)
    assert a.P == b.P


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDenominator):
        parse_map("x + 1/0", 5)
    with pytest.raises(ZeroDenominator):
        parse_map("x / (x - x)", 5)


def test_rational_coefficients_cleared():
    # coefficients with p in the denominator are legal and cleared
    f = parse_map("(x^2 - 1/27)/x", 3)
    assert (f.P, f.Q) == ((-1, 0, 27), (0, 27))
    assert f.alpha == 0
    assert f.eval(1) == Fraction(26, 27)


def test_scalar_extraction():
    f = parse_map("5x", 5)
    assert (f.alpha, f.m, f.n) == (1, 1, 0)


def test_nested_inverse():
    f = parse_map("1/(x^2+1) + x", 5)
    # (x^3 + x + 1)/(x^2 + 1)
    assert f.P == (1, 1, 0, 1)
    assert f.Q == (1, 0, 1)


def test_common_factor_removed():
    f = parse_map("(x^2 - 1)/(x - 1)", 5)
    assert f.P == (1, 1)
    assert f.Q == (1,)


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


def base_keys(X):
    return frozenset(b.key for b in level_balls(X, X.base_level))


def test_domain_two_balls():
    X = parse_domain("B(2,-1) + B(5,-1)", 7)
    assert X.base_level == -1
    assert base_keys(X) == frozenset([Fraction(2), Fraction(5)])


def test_domain_difference():
    X = parse_domain("Zp - B(4,-2) - B(5,-2)", 3)
    assert base_keys(X) == frozenset(Fraction(k) for k in (0, 1, 2, 3, 6, 7, 8))


def test_domain_qp_marker():
    assert parse_domain("Qp", 3) == QP_GLOBAL


def test_domain_empty_rejected():
    with pytest.raises(EmptyDomain):
        parse_domain("Zp - Zp", 3)


def test_domain_rational_center():
    X = parse_domain("B(1/3, 0)", 3)
    assert base_keys(X) == frozenset([Fraction(1, 3)])
    assert X.base_level == 0


def test_domain_negative_center_normalizes():
    X = parse_domain("B(-1, -2)", 3)
    assert base_keys(X) == frozenset([Fraction(8)])


# -- limits on the size of the input ------------------------------------------

LONG = "1" * 5000  # more digits than Python's int() converts by default


@pytest.mark.parametrize(
    "text,offset", [(LONG + "*x", 0), ("x + " + LONG, 4), ("x^" + LONG, 2)]
)
def test_long_integer_literal_in_map_is_a_parse_error(text, offset):
    with pytest.raises(ParseError) as info:
        parse_map(text, 3)
    assert info.value.offset == offset
    assert "too long" in str(info.value)


@pytest.mark.parametrize(
    "text,offset",
    [(f"B({LONG},0)", 2), (f"B(1/{LONG},0)", 4), (f"B(-{LONG},0)", 3), (f"B(0,-{LONG})", 5)],
)
def test_long_integer_literal_in_domain_is_a_parse_error(text, offset):
    with pytest.raises(ParseError) as info:
        parse_domain(text, 3)
    assert info.value.offset == offset
    assert "too long" in str(info.value)


@pytest.mark.parametrize(
    "text,offset",
    [
        ("(x^64)^64", 6),  # 64 * 64, refused before any product is formed
        ("x^32 x^32 x", 10),  # implicit product: the right operand's offset
        ("(x^16)^4 * x", 9),
        ("(x^16)^4 + 1/x", 9),
        ("1/(x^16)^4 - x/(x+1)", 11),
    ],
)
def test_degree_is_bounded_at_the_operator(text, offset):
    with pytest.raises(ParseError) as info:
        parse_map(text, 3)
    assert info.value.offset == offset
    assert "degree" in str(info.value)


def test_degree_bound_admits_every_power():
    assert parse_map("x^64", 3).m == 64
    assert parse_map("(x^16)^4 / (x+1)^64", 3).n == 64


# -- the Fraction parser as an oracle -----------------------------------------
#
# The parser and normalize_map as they were on Fraction coefficients: the
# parser's value was a quotient of Fraction polynomials, and the gcd was a
# monic Euclid over Q.  The integer path must give equal maps, or the same
# error with the same message and offset.


def _old_poly_mod(A, B):
    r = list(A)
    b = B
    db = len(b) - 1
    lead = b[-1]
    while len(r) - 1 >= db and any(r):
        r = trimmed(r)
        if len(r) - 1 < db:
            break
        q = r[-1] / lead
        off = len(r) - 1 - db
        for i in range(db + 1):
            r[off + i] -= q * b[i]
        r.pop()
    return trimmed(r)


def _old_poly_gcd(A, B):
    a, b = A, B
    while b:
        a, b = b, _old_poly_mod(a, b)
    if not a:
        return a
    return pscale(a, 1 / a[-1])


def _old_poly_divexact(A, B):
    r = list(A)
    b = B
    db = len(b) - 1
    lead = b[-1]
    q = [Fraction(0)] * max(len(r) - db, 0)
    while len(r) - 1 >= db:
        r = trimmed(r)
        if len(r) - 1 < db:
            break
        c = r[-1] / lead
        off = len(r) - 1 - db
        q[off] = c
        for i in range(db + 1):
            r[off + i] -= c * b[i]
        r.pop()
    assert not any(r)
    return trimmed(q)


def _old_content_and_primitive(F):
    num, den = 0, 1
    for c in F:
        num = gcd(num, c.numerator)
        den = den * c.denominator // gcd(den, c.denominator)
    content = Fraction(num, den)
    return content, pscale(F, 1 / content)


def _old_normalize_map(P_raw, Q_raw, p):
    """The old normalizer on Fraction coefficient lists; the map it built,
    with P and Q (integers after normalization) as int tuples."""
    P_raw = trimmed([Fraction(c) for c in P_raw])
    Q_raw = trimmed([Fraction(c) for c in Q_raw])
    if not Q_raw:
        raise ZeroDenominator("rational map with zero denominator polynomial")
    P, Q = P_raw, Q_raw
    if P:
        g = _old_poly_gcd(P, Q)
        if len(g) > 1:
            P = _old_poly_divexact(P, g)
            Q = _old_poly_divexact(Q, g)
    cP, P = _old_content_and_primitive(P) if P else (Fraction(1), P)
    cQ, Q = _old_content_and_primitive(Q)
    scale = cP / cQ if P_raw else Fraction(1) / cQ
    if P:
        num, den = scale.numerator, scale.denominator
        P = pscale(P, num)
        Q = pscale(Q, den)
        c = gcd(
            gcd(*(abs(x.numerator) for x in P), 0),
            gcd(*(abs(x.numerator) for x in Q), 0),
        )
        if c > 1:
            P = pscale(P, Fraction(1, c))
            Q = pscale(Q, Fraction(1, c))
    alpha_p = int(fraction_valuation(P[-1], p)) if P else 0
    alpha_q = int(fraction_valuation(Q[-1], p))
    t1 = padd(pmul(pderiv(P), Q), pmul(P, pderiv(Q)), -1)
    assert all(c.denominator == 1 for c in P + Q)
    return RationalMap(P=tuple(int(c) for c in P), Q=tuple(int(c) for c in Q),
                       alpha=alpha_p - alpha_q, m=len(P) - 1, n=len(Q) - 1, prime=p,
                       t1=tuple(int(c) for c in t1))


class _OldPolyFraction:
    def __init__(self, num, den):
        self.num = num
        self.den = den

    def add(self, o):
        return _OldPolyFraction(padd(pmul(self.num, o.den), pmul(o.num, self.den)),
                                pmul(self.den, o.den))

    def sub(self, o):
        return _OldPolyFraction(padd(pmul(self.num, o.den), pmul(o.num, self.den), -1),
                                pmul(self.den, o.den))

    def mul(self, o):
        return _OldPolyFraction(pmul(self.num, o.num), pmul(self.den, o.den))

    def div(self, o, pos):
        if not o.num:
            raise ZeroDenominator(f"division by zero in map expression (offset {pos})")
        return _OldPolyFraction(pmul(self.num, o.den), pmul(self.den, o.num))

    def neg(self):
        return _OldPolyFraction(pscale(self.num, -1), self.den)

    def pow(self, k, pos):
        if k > 64:
            raise ParseError(f"exponent {k} too large", pos)
        out = _OldPolyFraction([Fraction(1)], [Fraction(1)])
        base = self
        while k:
            if k & 1:
                out = out.mul(base)
            base = base.mul(base)
            k >>= 1
        return out


class _OldMapParser:
    def __init__(self, toks, p):
        self.toks, self.i, self.p, self.depth = toks, 0, p, 0

    def peek(self):
        return self.toks[self.i]

    def advance(self):
        self.i += 1
        return self.toks[self.i - 1]

    def parse(self):
        value = self.expr()
        t = self.peek()
        if t.kind != "end":
            raise ParseError(f"unexpected trailing input {t.text!r}", t.pos)
        return value

    def expr(self):
        value = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance()
            rhs = self.term()
            value = value.add(rhs) if op.text == "+" else value.sub(rhs)
        return value

    def term(self):
        value = self.unary()
        while True:
            t = self.peek()
            if t.kind == "op" and t.text in "*/":
                self.advance()
                rhs = self.unary()
                value = value.mul(rhs) if t.text == "*" else value.div(rhs, t.pos)
            elif t.kind in ("num", "x", "lparen"):
                value = value.mul(self.unary())
            else:
                return value

    def unary(self):
        t = self.peek()
        if t.kind == "op" and t.text == "-":
            self.advance()
            return self.unary().neg()
        if t.kind == "op" and t.text == "+":
            self.advance()
            return self.unary()
        return self.power()

    def power(self):
        base = self.atom()
        t = self.peek()
        if t.kind == "op" and t.text == "^":
            self.advance()
            e = self.peek()
            if e.kind != "num":
                raise ParseError("expected a nonnegative integer exponent", e.pos)
            self.advance()
            return base.pow(int(e.text), e.pos)
        return base

    def atom(self):
        t = self.advance()
        if t.kind == "num":
            return _OldPolyFraction(trimmed([Fraction(int(t.text))]), [Fraction(1)])
        if t.kind == "x":
            return _OldPolyFraction([Fraction(0), Fraction(1)], [Fraction(1)])
        if t.kind == "lparen":
            self.depth += 1
            if self.depth > 64:
                raise ParseError("expression nested too deeply", t.pos)
            value = self.expr()
            closing = self.advance()
            if closing.kind != "rparen":
                raise ParseError("expected ')'", closing.pos)
            self.depth -= 1
            return value
        raise ParseError(f"expected a number, 'x' or '(': got {t.text!r}", t.pos)


def _old_parse_map(text, p):
    value = _OldMapParser(_tokenize(text), p).parse()
    return _old_normalize_map(value.num, value.den, p)


def _outcome(parse, text, p):
    """The parsed map, or the error's type, message and offset."""
    try:
        return parse(text, p)
    except PadicDynError as exc:
        return type(exc), str(exc), getattr(exc, "offset", None)


def _trees():
    """Expression text from random trees: integer literals (0 included), x,
    + - * /, unary minus, ^0..6, implicit products and parentheses.  Each
    operand is parenthesized or not at random, so the text also exercises
    precedence and some malformed input (a^b^c)."""
    leaves = st.sampled_from(["x", "x", "0", "1", "2", "3", "4", "5", "6", "9", "12", "25",
                              "x^2", "3x^3", "7x"])

    def extend(children):
        def paren(text, yes):
            return f"({text})" if yes else text

        binary = st.tuples(children, st.sampled_from(["+", "-", "*", "/", " "]),
                           children, st.booleans(), st.booleans()
                           ).map(lambda t: paren(t[0], t[3]) + t[1] + paren(t[2], t[4]))
        power = st.tuples(children, st.integers(0, 6), st.booleans())
        # binary nodes twice as often as powers and negations
        return st.one_of(
            binary,
            binary,
            power.map(lambda t: f"{paren(t[0], t[2])}^{t[1]}"),
            children.map(lambda c: f"-{c}"),
        )

    return st.recursive(leaves, extend, max_leaves=12)


TREES = _trees()


@st.composite
def _expressions(draw):
    """A tree, a quotient of trees, a quotient of trees that share a factor
    c (a tree or c1 x^k + c0), or a sum of two quotients by c; either side
    may be negated.  The raw pair keeps the sign of each denominator
    product, so equal denominators must still be multiplied."""
    shape = draw(st.sampled_from(["tree", "quotient", "common factor", "common denominator"]))
    a = draw(TREES)
    if shape == "tree":
        return a
    b = draw(TREES)
    sa, sb = draw(st.sampled_from(["", "-"])), draw(st.sampled_from(["", "-"]))
    if shape == "quotient":
        return f"{sa}({a})/{sb}({b})"
    c = draw(st.one_of(TREES, st.builds("{}x^{}{:+d}".format, st.integers(-9, 9),
                                        st.integers(1, 3), st.integers(-9, 9))))
    if shape == "common factor":
        return f"{sa}({a})({c})/({sb}({b})({c}))"
    op = draw(st.sampled_from("+-"))
    return f"({a})/{sb}({c}) {op} {sa}({b})/{sb}({c})"


@pytest.mark.parametrize(
    "text",
    ["(-(x+1)(x-2))/((x+1)(-3x+9/2))", "0", "0/x", "x/0", "(x-x)/(x+1)", "x - 1/x",
     "1/(-x) + 1/(-x)"],
)
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_integer_parser_matches_fraction_parser_examples(text, p):
    assert _outcome(parse_map, text, p) == _outcome(_old_parse_map, text, p)


@given(_expressions(), st.sampled_from([2, 3, 5, 7]))
@settings(max_examples=400, deadline=None, derandomize=True)
def test_integer_parser_matches_fraction_parser(text, p):
    outcome = _outcome(parse_map, text, p)
    # the Fraction parser had no degree bound; test_degree_is_bounded_at_the_operator
    # covers the refusals
    assume(not (isinstance(outcome, tuple) and outcome[1].startswith("degree ")))
    assert outcome == _outcome(_old_parse_map, text, p)


def _coefficient_text(coeffs):
    return " + ".join(f"({c.numerator}/{c.denominator})x^{i}" for i, c in enumerate(coeffs))


fractions = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 30))


@given(st.lists(fractions, min_size=1, max_size=5), st.lists(fractions, min_size=1, max_size=4),
       st.sampled_from([2, 3, 5, 7]))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_normalize_map_matches_the_parsed_text(pc, qc, p):
    assume(any(qc))
    text = f"({_coefficient_text(pc)})/({_coefficient_text(qc)})"
    assert normalize_map(pc, qc, p) == parse_map(text, p)
    assert normalize_map(pc, qc, p) == _old_normalize_map(pc, qc, p)


# -- products by 1 are not formed ----------------------------------------------


def _int_mul_operands(text, p):
    """The operands of every product that parse_map hands to ``_int_mul``."""
    operands = []
    int_mul = parsing._int_mul

    def recorded(a, b):
        operands.append((a, b))
        return int_mul(a, b)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(parsing, "_int_mul", recorded)
        try:
            parse_map(text, p)
        except PadicDynError:
            pass
    return operands


def test_int_mul_sees_the_products_of_two_polynomials():
    assert _int_mul_operands("(x+1)(x-1)/2", 5) == [([1, 1], [-1, 1])]


def test_a_product_by_one_is_the_other_factor_itself():
    a = [2, 0, 1]
    assert parsing._mul(a, [1], 0) is a and parsing._mul([1], a, 0) is a


@given(_expressions(), st.sampled_from([2, 3, 5, 7]))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_parse_map_never_multiplies_by_one(text, p):
    # a factor [1] (most are denominators) returns the other factor
    operands = _int_mul_operands(text, p)
    assert sum(a == [1] or b == [1] for a, b in operands) == 0
