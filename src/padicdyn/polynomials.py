"""Dense univariate polynomials over Q with p-adic coefficient bookkeeping.

Coefficients are stored lowest degree first as exact ``Fraction``s, with the
prime held once by the polynomial.  The zero polynomial has degree -1.  All
operations are exact; evaluation uses Horner's scheme.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd as int_gcd
from typing import Iterable, Sequence

from .errors import PrimeMismatch
from .padics import INF, NEG_INF, ExtendedInt, fraction_valuation


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

    @staticmethod
    def constant(c: int | Fraction, p: int) -> "Polynomial":
        return Polynomial.of([c], p)

    @staticmethod
    def x(p: int) -> "Polynomial":
        return Polynomial.of([0, 1], p)

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

    def shift_variable(self, k: int) -> "Polynomial":
        """Substitute x -> p^k x."""
        pk = Fraction(self.prime) ** k
        return Polynomial.of(
            [a * pk**i for i, a in enumerate(self.coefficients)], self.prime
        )

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


def content_and_primitive(F: Polynomial) -> tuple[Fraction, Polynomial]:
    """Positive rational content c and primitive integer part G with F = c*G."""
    if F.is_zero():
        return Fraction(1), F
    num = 0
    den = 1
    for c in F.coefficients:
        num = int_gcd(num, c.numerator)
        den = den * c.denominator // int_gcd(den, c.denominator)
    content = Fraction(num, den)
    return content, F.scale(1 / content)


def poly_gcd(A: Polynomial, B: Polynomial) -> Polynomial:
    """Monic gcd over the rationals (Euclid)."""
    a, b = A, B
    while not b.is_zero():
        a, b = b, _poly_mod(a, b)
    if a.is_zero():
        return a
    return a.scale(1 / a.leading_coefficient)


def _poly_mod(A: Polynomial, B: Polynomial) -> Polynomial:
    if B.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    r = list(A.coefficients)
    b = B.coefficients
    db = len(b) - 1
    lead = b[-1]
    while len(r) - 1 >= db and any(r):
        while r and r[-1] == 0:
            r.pop()
        if len(r) - 1 < db:
            break
        q = r[-1] / lead
        off = len(r) - 1 - db
        for i in range(db + 1):
            r[off + i] -= q * b[i]
        r.pop()
    return Polynomial.of(r, A.prime)


def poly_divexact(A: Polynomial, B: Polynomial) -> Polynomial:
    """Exact quotient A/B; raises if the division leaves a remainder."""
    if B.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    r = list(A.coefficients)
    b = B.coefficients
    db = len(b) - 1
    lead = b[-1]
    q = [Fraction(0)] * max(len(r) - db, 0)
    while len(r) - 1 >= db:
        while r and r[-1] == 0:
            r.pop()
        if len(r) - 1 < db:
            break
        c = r[-1] / lead
        off = len(r) - 1 - db
        q[off] = c
        for i in range(db + 1):
            r[off + i] -= c * b[i]
        r.pop()
    if any(r):
        raise ValueError("division is not exact")
    return Polynomial.of(q, A.prime)


def squarefree_part(F: Polynomial) -> Polynomial:
    """F with repeated factors collapsed (same roots, all simple), cleared
    to integral coefficients with content 1."""
    if F.degree <= 1:
        return F
    g = poly_gcd(F, poly_derivative(F))
    if g.degree <= 0:
        return F
    _, prim = content_and_primitive(poly_divexact(F, g))
    return prim


def norm_constant_exponent(F: Polynomial, center: int | Fraction) -> ExtendedInt:
    """Largest level t certifying |F| constant on the ball of radius p^t
    around the center.

    With Taylor coefficients g_i of F at the center, |F| equals |F(center)|
    on the ball whenever v(g_0) < v(g_i) - i*t for every i >= 1.  Returns INF
    for nonzero constants and NEG_INF when F(center) = 0.
    """
    if F.is_zero():
        return NEG_INF
    g = taylor_shift(F, center)
    g0 = g.coefficient(0)
    if g0 == 0:
        return NEG_INF
    if g.degree <= 0:
        return INF
    p = F.prime
    v0 = fraction_valuation(g0, p)
    best = INF
    for i in range(1, g.degree + 1):
        gi = g.coefficient(i)
        if gi == 0:
            continue
        # largest t with i*t < v(g_i) - v0
        t_i = (fraction_valuation(gi, p) - v0 - 1) // i
        best = min(best, t_i)
    return best
