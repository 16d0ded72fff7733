"""Front-end grammars for maps and domains.

Map expressions are integer literals and x combined with ``+ - * / ^`` and
parentheses; implicit multiplication ("2x^3", "2(x+1)") is accepted and
whitespace ignored.  The expression is evaluated exactly as a quotient of
two integer polynomials, so "(x^2-1)/x", "x - 1/x" and "x/3 + 1/2" all
work, and a zero denominator anywhere is rejected.  The raw quotient is the
one the formulas n1*d2 +- n2*d1 over d1*d2 give; ``normalize_map`` then
makes it canonical.  Work is bounded: exponents above _MAX_POWER, products
of degree above _MAX_DEGREE, nesting deeper than _MAX_DEPTH and literals
too long for ``int()`` are refused, and so is a domain difference of more
maximal balls than ``ball_cap``, before it splits.  Every parse error
carries the byte offset of the offending token.

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


@dataclass(slots=True)
class _Tok:
    kind: str  # num, x, op, lparen, rparen, comma, name, end
    text: str
    pos: int


# the kind of each one-character token
_SINGLE = {c: "op" for c in "+-*/^"} | {"(": "lparen", ")": "rparen", ",": "comma"}
# operator texts: the parser tells an operator by its text alone, which no
# other kind of token has
_ADDITIVE = ("+", "-")
_MULTIPLICATIVE = ("*", "/")
# tokens that start the right operand of an implicit product
_OPERAND = ("num", "x", "lparen")


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


# The parser's value: the exact quotient num/den of two integer polynomials,
# as the pair (num, den) of coefficient lists, lowest degree first and
# without trailing zeros.
_Value = tuple[list[int], list[int]]


def _add(a: _Value, b: _Value, pos: int, sign: int) -> _Value:
    """a + sign*b, as n1*d2 + sign*n2*d1 over d1*d2 even when the
    denominators are equal: the sign of the raw denominator decides the
    sign of the normalized pair."""
    (n1, d1), (n2, d2) = a, b
    return _int_add(_mul(n1, d2, pos), _mul(n2, d1, pos), sign), _mul(d1, d2, pos)


def _times(a: _Value, b: _Value, pos: int) -> _Value:
    return _mul(a[0], b[0], pos), _mul(a[1], b[1], pos)


def _over(a: _Value, b: _Value, pos: int) -> _Value:
    if not b[0]:
        raise ZeroDenominator(f"division by zero in map expression (offset {pos})")
    return _mul(a[0], b[1], pos), _mul(a[1], b[0], pos)


def _power(base: _Value, k: int, pos: int) -> _Value:
    # no squaring past the last bit: every product formed is a factor
    # of the result, so _mul refuses only results above _MAX_DEGREE
    out = None
    while k:
        if k & 1:
            out = base if out is None else _times(out, base, pos)
        k >>= 1
        if k:
            base = _times(base, base, pos)
    return out or ([1], [1])


def _mul(a: list[int], b: list[int], pos: int) -> list[int]:
    """Product of two coefficient lists, refused before it is formed when
    its degree would pass _MAX_DEGREE.  A factor [1] returns the other one
    (most products in a parse are by a denominator [1]), and another
    constant scales it."""
    if len(b) == 1:
        a, b = b, a
    if len(a) == 1:
        return b if a[0] == 1 else [a[0] * c for c in b]
    if a and b and len(a) + len(b) - 2 > _MAX_DEGREE:
        raise ParseError(f"degree {len(a) + len(b) - 2} too large", pos)
    return _int_mul(a, b)


def _int_literal(t: _Tok) -> int:
    try:
        return int(t.text)
    except ValueError:  # more digits than int() converts
        raise ParseError(f"integer literal of {len(t.text)} digits too long", t.pos) from None


class _MapParser:
    """Recursive descent with precedence: +- < */ < unary- < ^; toks[i] is
    the next token."""

    def __init__(self, toks: list[_Tok]):
        self.toks = toks
        self.i = 0
        self.depth = 0

    def parse(self) -> _Value:
        value = self.expr()
        t = self.toks[self.i]
        if t.kind != "end":
            raise ParseError(f"unexpected trailing input {t.text!r}", t.pos)
        return value

    def expr(self) -> _Value:
        value = self.term()
        while (op := self.toks[self.i]).text in _ADDITIVE:
            self.i += 1
            value = _add(value, self.term(), op.pos, 1 if op.text == "+" else -1)
        return value

    def term(self) -> _Value:
        value = self.unary()
        while True:
            t = self.toks[self.i]
            if t.text in _MULTIPLICATIVE:
                self.i += 1
                rhs = self.unary()
                value = _times(value, rhs, t.pos) if t.text == "*" else _over(value, rhs, t.pos)
            elif t.kind in _OPERAND:
                # implicit multiplication: 2x, 2(x+1), x(x+1), (x+1)(x-1)
                value = _times(value, self.unary(), t.pos)
            else:
                return value

    def unary(self) -> _Value:
        """-u, +u, or a power: an atom, or an atom ^ an integer literal."""
        t = self.toks[self.i]
        self.i += 1
        if t.kind == "num":
            c = _int_literal(t)
            base = ([c] if c else []), [1]
        elif t.kind == "x":
            base = [0, 1], [1]
        elif t.kind == "lparen":
            self.depth += 1
            if self.depth > _MAX_DEPTH:
                raise ParseError("expression nested too deeply", t.pos)
            base = self.expr()
            closing = self.toks[self.i]
            if closing.kind != "rparen":
                raise ParseError("expected ')'", closing.pos)
            self.i += 1
            self.depth -= 1
        elif t.text == "+":
            return self.unary()
        elif t.text == "-":
            num, den = self.unary()
            return [-c for c in num], den
        else:
            raise ParseError(f"expected a number, 'x' or '(': got {t.text!r}", t.pos)
        t = self.toks[self.i]
        if t.text != "^":
            return base
        e = self.toks[self.i + 1]
        if e.kind != "num":
            raise ParseError("expected a nonnegative integer exponent", e.pos)
        self.i += 2
        k = _int_literal(e)
        if k > _MAX_POWER:
            raise ParseError(f"exponent {k} too large", e.pos)
        return _power(base, k, t.pos)


def parse_map(text: str, p: int) -> RationalMap:
    """Parse and normalize a rational map expression."""
    require_prime(p)
    num, den = _MapParser(_tokenize(text)).parse()
    return normalize_map(num, den, p)


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
