"""Front-end grammars for maps and domains.

Map expressions are integer literals and x combined with ``+ - * / ^`` and
parentheses; implicit multiplication ("2x^3", "2(x+1)") is accepted and
whitespace ignored.  The expression is evaluated exactly as a quotient of
two integer polynomials, so "(x^2-1)/x", "x - 1/x" and "x/3 + 1/2" all
work, and a zero denominator anywhere is rejected.  The raw quotient is the
one the formulas n1*d2 +- n2*d1 over d1*d2 give; ``normalize_map`` then
makes it canonical.  Work is bounded: exponents above _MAX_POWER, products
of degree above _MAX_DEGREE, nesting deeper than _MAX_DEPTH and literals
too long for ``int()`` are refused.  Every rejection carries the byte
offset of the offending token.

Domains: ``Zp`` or ``B(<rational>, <t>)`` combined left to right with ``+``
(union) and ``-`` (set difference); ``Qp`` selects the global analysis.

Both grammars reject a modulus p that is not a prime.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .domains import CompactDomain
from .errors import EmptyDomain, ParseError, ZeroDenominator
from .maps import RationalMap, normalize_map
from .padics import require_prime
from .polynomials import _int_add, _int_mul

_MAX_DEPTH = 64
_MAX_POWER = 64
# the gcd in normalize_map costs 0.1 s for two coprime polynomials of this
# degree, and about 40 times that at twice the degree
_MAX_DEGREE = 64

QP_GLOBAL = "Qp"


@dataclass
class _Tok:
    kind: str  # num, x, op, lparen, rparen, comma, name, end
    text: str
    pos: int


# the kind of each one-character token
_SINGLE = {c: "op" for c in "+-*/^"} | {"(": "lparen", ")": "rparen", ",": "comma"}


def _tokenize(text: str) -> list[_Tok]:
    toks = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        kind = _SINGLE.get(c)
        if kind is not None:
            toks.append(_Tok(kind, c, i))
            i += 1
            continue
        if c.isspace():
            i += 1
            continue
        if c in "0123456789":
            j = i
            while j < n and text[j] in "0123456789":
                j += 1
            toks.append(_Tok("num", text[i:j], i))
            i = j
            continue
        if c.isascii() and c.isalpha():
            j = i
            while j < n and text[j].isascii() and text[j].isalnum():
                j += 1
            word = text[i:j]
            toks.append(_Tok("x" if word == "x" else "name", word, i))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    toks.append(_Tok("end", "", n))
    return toks


class _PolyFraction:
    """Exact quotient num/den of two integer polynomials, the parser's value
    type; coefficient lists run lowest degree first, without trailing
    zeros."""

    __slots__ = ("num", "den")

    def __init__(self, num: list[int], den: list[int]):
        self.num = num
        self.den = den

    def add(self, o, pos: int, sign: int):
        """self + sign*o, as n1*d2 + sign*n2*d1 over d1*d2 even when the
        denominators are equal: the sign of the raw denominator decides the
        sign of the normalized pair."""
        return _PolyFraction(
            _int_add(_mul(self.num, o.den, pos), _mul(o.num, self.den, pos), sign),
            _mul(self.den, o.den, pos),
        )

    def mul(self, o, pos: int):
        return _PolyFraction(_mul(self.num, o.num, pos), _mul(self.den, o.den, pos))

    def div(self, o, pos: int):
        if not o.num:
            raise ZeroDenominator(f"division by zero in map expression (offset {pos})")
        return _PolyFraction(_mul(self.num, o.den, pos), _mul(self.den, o.num, pos))

    def neg(self):
        return _PolyFraction([-c for c in self.num], self.den)

    def pow(self, k: int, pos: int):
        # no squaring past the last bit: every product formed is a factor
        # of the result, so _mul refuses only results above _MAX_DEGREE
        out = _PolyFraction([1], [1])
        base = self
        while k:
            if k & 1:
                out = out.mul(base, pos)
            k >>= 1
            if k:
                base = base.mul(base, pos)
        return out


def _mul(a: list[int], b: list[int], pos: int) -> list[int]:
    """Product of two coefficient lists, refused before it is formed when
    its degree would pass _MAX_DEGREE."""
    if a and b and len(a) + len(b) - 2 > _MAX_DEGREE:
        raise ParseError(f"degree {len(a) + len(b) - 2} too large", pos)
    return _int_mul(a, b)


def _int_literal(t: _Tok) -> int:
    try:
        return int(t.text)
    except ValueError:  # more digits than int() converts
        raise ParseError(f"integer literal of {len(t.text)} digits too long", t.pos) from None


class _MapParser:
    """Recursive descent with precedence: +- < */ < unary- < ^."""

    def __init__(self, toks: list[_Tok]):
        self.toks = toks
        self.i = 0
        self.depth = 0

    def peek(self) -> _Tok:
        return self.toks[self.i]

    def advance(self) -> _Tok:
        t = self.toks[self.i]
        self.i += 1
        return t

    def parse(self) -> _PolyFraction:
        value = self.expr()
        t = self.peek()
        if t.kind != "end":
            raise ParseError(f"unexpected trailing input {t.text!r}", t.pos)
        return value

    def expr(self) -> _PolyFraction:
        value = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance()
            rhs = self.term()
            value = value.add(rhs, op.pos, 1 if op.text == "+" else -1)
        return value

    def term(self) -> _PolyFraction:
        value = self.unary()
        while True:
            t = self.peek()
            if t.kind == "op" and t.text in "*/":
                self.advance()
                rhs = self.unary()
                value = value.mul(rhs, t.pos) if t.text == "*" else value.div(rhs, t.pos)
            elif t.kind in ("num", "x", "lparen"):
                # implicit multiplication: 2x, 2(x+1), x(x+1), (x+1)(x-1)
                value = value.mul(self.unary(), t.pos)
            else:
                return value

    def unary(self) -> _PolyFraction:
        t = self.peek()
        if t.kind == "op" and t.text == "-":
            self.advance()
            return self.unary().neg()
        if t.kind == "op" and t.text == "+":
            self.advance()
            return self.unary()
        return self.power()

    def power(self) -> _PolyFraction:
        base = self.atom()
        t = self.peek()
        if t.kind == "op" and t.text == "^":
            self.advance()
            e = self.peek()
            if e.kind != "num":
                raise ParseError("expected a nonnegative integer exponent", e.pos)
            self.advance()
            k = _int_literal(e)
            if k > _MAX_POWER:
                raise ParseError(f"exponent {k} too large", e.pos)
            return base.pow(k, t.pos)
        return base

    def atom(self) -> _PolyFraction:
        t = self.advance()
        if t.kind == "num":
            c = _int_literal(t)
            return _PolyFraction([c] if c else [], [1])
        if t.kind == "x":
            return _PolyFraction([0, 1], [1])
        if t.kind == "lparen":
            self.depth += 1
            if self.depth > _MAX_DEPTH:
                raise ParseError("expression nested too deeply", t.pos)
            value = self.expr()
            closing = self.advance()
            if closing.kind != "rparen":
                raise ParseError("expected ')'", closing.pos)
            self.depth -= 1
            return value
        raise ParseError(f"expected a number, 'x' or '(': got {t.text!r}", t.pos)


def parse_map(text: str, p: int) -> RationalMap:
    """Parse and normalize a rational map expression."""
    require_prime(p)
    value = _MapParser(_tokenize(text)).parse()
    return normalize_map(value.num, value.den, p)


def parse_seed(text: str) -> Fraction:
    """An integer or rational seed, in any form ``Fraction`` accepts."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ZeroDenominator(f"zero denominator in seed {text!r}") from None
    except ValueError:
        raise ParseError(f"seed is not a rational number: {text!r}", 0) from None


def _signed_integer(toks: list[_Tok], i: int, what: str) -> tuple[int, int]:
    """An integer literal with an optional leading '-', read at token i;
    ``what`` names the expected value in the error."""
    sign = 1
    if toks[i].kind == "op" and toks[i].text == "-":
        sign = -1
        i += 1
    if toks[i].kind != "num":
        raise ParseError(f"expected {what}", toks[i].pos)
    return sign * _int_literal(toks[i]), i + 1


def _parse_rational(toks: list[_Tok], i: int) -> tuple[Fraction, int]:
    num, i = _signed_integer(toks, i, "a rational number")
    if toks[i].kind == "op" and toks[i].text == "/":
        i += 1
        if toks[i].kind != "num":
            raise ParseError("expected a denominator", toks[i].pos)
        den = _int_literal(toks[i])
        if den == 0:
            raise ZeroDenominator(f"zero denominator in domain literal (offset {toks[i].pos})")
        return Fraction(num, den), i + 1
    return Fraction(num), i


def parse_domain(text: str, p: int) -> CompactDomain | str:
    """Parse the domain grammar; returns QP_GLOBAL for "Qp"."""
    require_prime(p)
    toks = _tokenize(text)
    if toks[0].kind == "name" and toks[0].text == "Qp" and toks[1].kind == "end":
        return QP_GLOBAL
    domain, i = _domain_atom(toks, 0, p)
    while toks[i].kind == "op" and toks[i].text in "+-":
        op = toks[i]
        rhs, i = _domain_atom(toks, i + 1, p)
        if op.text == "+":
            domain = domain.union(rhs)
        else:
            try:
                domain = domain.difference(rhs)
            except EmptyDomain:
                raise EmptyDomain(
                    f"domain became empty after '-' (offset {op.pos})"
                ) from None
    if toks[i].kind != "end":
        raise ParseError(f"unexpected trailing input {toks[i].text!r}", toks[i].pos)
    return domain


def _domain_atom(toks: list[_Tok], i: int, p: int) -> tuple[CompactDomain, int]:
    t = toks[i]
    if t.kind == "name" and t.text == "Zp":
        return CompactDomain.zp(p), i + 1
    if t.kind == "name" and t.text == "B":
        i += 1
        if toks[i].kind != "lparen":
            raise ParseError("expected '(' after B", toks[i].pos)
        i += 1
        center, i = _parse_rational(toks, i)
        if toks[i].kind != "comma":
            raise ParseError("expected ',' between center and level", toks[i].pos)
        i += 1
        level, i = _signed_integer(toks, i, "an integer level")
        if toks[i].kind != "rparen":
            raise ParseError("expected ')'", toks[i].pos)
        return CompactDomain.ball(center, level, p), i + 1
    raise ParseError(f"expected 'Zp' or 'B(center, level)': got {t.text!r}", t.pos)
