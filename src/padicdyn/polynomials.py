"""Dense univariate polynomials over Q with p-adic coefficient bookkeeping.

Coefficients are stored lowest degree first as exact ``Fraction``s, with the
prime held once by the polynomial.  The zero polynomial has degree -1.  All
operations are exact; evaluation uses Horner's scheme.  The gcd and the exact
division exist only on integer coefficient lists (the ``_int_*`` helpers),
so no Euclid runs on ``Fraction``s.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd as int_gcd
from math import lcm
from typing import Iterable, Sequence

from .errors import CertificateFailed, PrimeMismatch
from .padics import INF, NEG_INF, ExtendedInt, fraction_valuation, int_valuation


@dataclass(frozen=True)
class Polynomial:
    coefficients: tuple[Fraction, ...]  # lowest degree first, no trailing zeros
    prime: int

    @staticmethod
    def of(coeffs: Iterable[int | Fraction], p: int) -> "Polynomial":
        vals = [Fraction(c) for c in coeffs]
        while vals and vals[-1] == 0:
            vals.pop()
        return Polynomial(tuple(vals), p)

    @staticmethod
    def zero(p: int) -> "Polynomial":
        return Polynomial((), p)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def is_zero(self) -> bool:
        return not self.coefficients

    @property
    def leading_coefficient(self) -> Fraction:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coefficients[-1]

    def coefficient(self, i: int) -> Fraction:
        if 0 <= i <= self.degree:
            return self.coefficients[i]
        return Fraction(0)

    def _check(self, other: "Polynomial"):
        if self.prime != other.prime:
            raise PrimeMismatch("polynomials over different primes")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        n = max(len(self.coefficients), len(other.coefficients))
        return Polynomial.of(
            [self.coefficient(i) + other.coefficient(i) for i in range(n)],
            self.prime,
        )

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        n = max(len(self.coefficients), len(other.coefficients))
        return Polynomial.of(
            [self.coefficient(i) - other.coefficient(i) for i in range(n)],
            self.prime,
        )

    def __neg__(self) -> "Polynomial":
        return Polynomial.of([-c for c in self.coefficients], self.prime)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        if self.is_zero() or other.is_zero():
            return Polynomial.zero(self.prime)
        out = [Fraction(0)] * (len(self.coefficients) + len(other.coefficients) - 1)
        for i, a in enumerate(self.coefficients):
            if a == 0:
                continue
            for j, b in enumerate(other.coefficients):
                out[i + j] += a * b
        return Polynomial.of(out, self.prime)

    def scale(self, c: int | Fraction) -> "Polynomial":
        return Polynomial.of([c * a for a in self.coefficients], self.prime)

    def coefficient_valuations(self) -> tuple[ExtendedInt, ...]:
        return tuple(fraction_valuation(c, self.prime) for c in self.coefficients)

    def min_coefficient_valuation(self) -> ExtendedInt:
        if self.is_zero():
            return INF
        return min(self.coefficient_valuations())

    def is_integral(self) -> bool:
        return self.min_coefficient_valuation() >= 0

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coefficient(i)
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append("x" if c == 1 else f"{c}*x")
            else:
                parts.append(f"x^{i}" if c == 1 else f"{c}*x^{i}")
        return " + ".join(parts).replace("+ -", "- ")


def poly_eval(F: Polynomial, a: int | Fraction) -> Fraction:
    """Exact evaluation by Horner's scheme."""
    acc = Fraction(0)
    for c in reversed(F.coefficients):
        acc = acc * a + c
    return acc


def poly_derivative(F: Polynomial) -> Polynomial:
    return Polynomial.of([i * c for i, c in enumerate(F.coefficients)][1:], F.prime)


def taylor_shift(F: Polynomial, a: int | Fraction) -> Polynomial:
    """The polynomial G with G(x) = F(x + a)."""
    return Polynomial.of(_taylor_coefficients(F.coefficients, a), F.prime)


def _taylor_coefficients(coeffs: Sequence, a: int | Fraction) -> list:
    """Coefficients of F(x + a) from F's, both lowest degree first, via
    in-place synthetic shifts; integer coefficients and a stay integers."""
    n = len(coeffs)
    work = list(coeffs)
    for k in range(n - 1):
        for j in range(n - 2, k - 1, -1):
            work[j] += a * work[j + 1]
    return work


def _lcm_denominator(coeffs: Iterable[Fraction]) -> int:
    return lcm(*(c.denominator for c in coeffs))


def _cleared(coeffs: Sequence[Fraction], den: int = 0) -> list[int]:
    """Integer coefficients of den * F; den defaults to the lcm of F's
    denominators."""
    den = den or _lcm_denominator(coeffs)
    return [c.numerator * (den // c.denominator) for c in coeffs]


def _int_content(a: Sequence[int]) -> int:
    """Positive gcd of the coefficients (1 for the zero polynomial)."""
    return int_gcd(*a) or 1


def _int_add(a: list[int], b: list[int], sign: int = 1) -> list[int]:
    """a + sign*b on integer coefficient lists, without trailing zeros."""
    out = a + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] += sign * c
    while out and out[-1] == 0:
        out.pop()
    return out


def _int_mul(a: list[int], b: list[int]) -> list[int]:
    """Product of integer coefficient lists (lowest degree first)."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b):
                out[i + j] += c * d
    return out


def _int_gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd with positive leading coefficient of two integer
    polynomials ([] when both are zero), by the primitive
    pseudo-remainder sequence."""
    a = _int_primitive(a)
    b = _int_primitive(b)
    while b:
        r = a
        lb = b[-1]
        while len(r) >= len(b):
            # r <- (lb*r - r_lead*x^k*b)/gcd(lb, r_lead) drops r's degree;
            # the constant factor changes no gcd
            g = int_gcd(lb, r[-1])
            u, w = lb // g, r[-1] // g
            off = len(r) - len(b)
            r = [u * c for c in r]
            for i, c in enumerate(b):
                r[off + i] -= w * c
            r.pop()
            while r and r[-1] == 0:
                r.pop()
        a, b = b, _int_primitive(r)
    return a


def _int_primitive(a: list[int]) -> list[int]:
    """a divided by its content, with a positive leading coefficient."""
    if not a:
        return a
    c = _int_content(a)
    if a[-1] < 0:
        c = -c
    return [x // c for x in a]


def _int_divexact(a: list[int], b: list[int]) -> list[int]:
    """Quotient a/b of integer polynomials (lowest degree first, no
    trailing zeros); raises unless b divides a in Z[x]."""
    r = list(a)
    db = len(b) - 1
    lead = b[-1]
    q = [0] * max(len(r) - db, 0)
    while len(r) > db:
        c, rem = divmod(r[-1], lead)
        if rem:
            raise ValueError("division is not exact")
        off = len(r) - 1 - db
        q[off] = c
        for i in range(db + 1):
            r[off + i] -= c * b[i]
        r.pop()
        while r and r[-1] == 0:
            r.pop()
    if r:
        raise ValueError("division is not exact")
    return q


def squarefree_part(G: list[int]) -> list[int]:
    """The integer polynomial G with repeated factors collapsed (same roots,
    all simple) and content 1; G itself when no factor repeats."""
    if len(G) <= 2:
        return G
    g = _int_gcd(G, [i * c for i, c in enumerate(G)][1:])
    if len(g) <= 1:
        return G
    q = _int_divexact(G, g)
    c = _int_content(q)
    return [a // c for a in q]


def _rescaled_coefficients(F: Polynomial, d: int, M: int) -> list[int]:
    """Integer coefficients of p^(Md) F(y / p^M), lowest degree first, for
    integer coefficients and d >= deg F; y = p^M x takes B(0, M) into Z_p."""
    p = F.prime
    out = []
    for i, c in enumerate(F.coefficients):
        if c.denominator != 1:
            raise CertificateFailed(f"cannot rescale the non-integral coefficient {c}")
        out.append(c.numerator * p ** (M * (d - i)))
    return out


def _ball_probe(G: Sequence[int], p: int, y: int) -> tuple[ExtendedInt, ExtendedInt, ExtendedInt]:
    """(v(G(y)), v(G'(y)), c) for an integer G (lowest degree first) at an
    integer y, with c the largest level t certifying |G| constant on the
    ball of radius p^t around y (INF for a nonzero constant, NEG_INF when
    G(y) = 0): the largest t with v(g_0) < v(g_i) - i*t for the Taylor
    coefficients g_i of G at y.  For G = ``_rescaled_coefficients(F, d, M)``
    the i-th Taylor coefficient of F at a = y / p^M is p^(M(i - d)) g_i, so
    v(F(a)) = v(G(y)) - Md, v(F'(a)) = v(G'(y)) + M(1 - d), and |F| is
    constant on the ball of radius p^(c + M) around a.
    """
    g = _taylor_coefficients(G, y)
    if not g:
        return INF, INF, NEG_INF
    v0 = int_valuation(g[0], p)
    v1 = int_valuation(g[1], p) if len(g) > 1 else INF
    if v0 == INF:
        return v0, v1, NEG_INF
    c = INF
    for i in range(1, len(g)):
        if g[i]:
            c = min(c, (int_valuation(g[i], p) - v0 - 1) // i)
    return v0, v1, c
