"""Rational maps f = P/Q in normalized form.

Normalization makes P and Q coprime with integral coefficients and factors
the map as f = p^alpha * P1/Q1 where P1 and Q1 have unit leading
coefficients.  The auxiliary polynomial T1 = P'Q - PQ' (the numerator of
Q^2 f') is computed once; it drives the scaling analysis and the subsidiary
edge bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd as int_gcd

from .errors import PoleInDomain, ZeroDenominator
from .padics import fraction_valuation, require_prime
from .polynomials import (
    Polynomial,
    content_and_primitive,
    poly_derivative,
    poly_divexact,
    poly_eval,
    poly_gcd,
)


@dataclass(frozen=True)
class RationalMap:
    P: Polynomial
    Q: Polynomial
    alpha: int
    P1: Polynomial
    Q1: Polynomial
    m: int
    n: int
    prime: int
    t1: Polynomial  # P'Q - PQ', the numerator of Q^2 * f'

    def eval(self, x: int | Fraction) -> Fraction:
        q = poly_eval(self.Q, x)
        if q == 0:
            raise PoleInDomain(f"denominator vanishes at {x}")
        return poly_eval(self.P, x) / q

    def derivative_value(self, x: int | Fraction) -> Fraction:
        """f'(x) computed as T1(x)/Q(x)^2."""
        q = poly_eval(self.Q, x)
        if q == 0:
            raise PoleInDomain(f"denominator vanishes at {x}")
        return poly_eval(self.t1, x) / (q * q)

    def scalar_exponent(self, x: int | Fraction):
        """Exponent e with |f'(x)| = p^e (-inf at derivative roots)."""
        return -fraction_valuation(self.derivative_value(x), self.prime)

    def __str__(self):
        return f"({self.P})/({self.Q})"


def normalize_map(P_raw: Polynomial, Q_raw: Polynomial) -> RationalMap:
    """Build the normalized map for a numerator/denominator pair.

    Steps: remove the polynomial gcd, clear denominators to a coprime
    integral pair, then factor unit-leading P1, Q1 and the p-power alpha.
    """
    p = P_raw.prime
    if Q_raw.is_zero():
        raise ZeroDenominator("rational map with zero denominator polynomial")
    P, Q = P_raw, Q_raw
    if not P.is_zero():
        g = poly_gcd(P, Q)
        if g.degree > 0:
            P = poly_divexact(P, g)
            Q = poly_divexact(Q, g)
    # clear to integer coefficients with trivial common content
    cP, P = content_and_primitive(P) if not P.is_zero() else (Fraction(1), P)
    cQ, Q = content_and_primitive(Q)
    scale = cP / cQ if not P_raw.is_zero() else Fraction(1) / cQ
    if not P.is_zero():
        num, den = scale.numerator, scale.denominator
        P = P.scale(num)
        Q = Q.scale(den)
        c = int_gcd(
            int_gcd(*(abs(x.numerator) for x in P.coefficients), 0),
            int_gcd(*(abs(x.numerator) for x in Q.coefficients), 0),
        )
        if c > 1:
            P = P.scale(Fraction(1, c))
            Q = Q.scale(Fraction(1, c))

    if P.is_zero():
        P1 = P
        alpha_p = 0
        m = -1
    else:
        alpha_p = int(fraction_valuation(P.leading_coefficient, p))
        P1 = P.scale(Fraction(1, p**alpha_p) if alpha_p >= 0 else Fraction(p**-alpha_p))
        m = P.degree
    alpha_q = int(fraction_valuation(Q.leading_coefficient, p))
    Q1 = Q.scale(Fraction(1, p**alpha_q) if alpha_q >= 0 else Fraction(p**-alpha_q))
    n = Q.degree

    dP = poly_derivative(P)
    dQ = poly_derivative(Q)
    t1 = dP * Q - P * dQ
    return RationalMap(
        P=P,
        Q=Q,
        alpha=alpha_p - alpha_q,
        P1=P1,
        Q1=Q1,
        m=m,
        n=n,
        prime=p,
        t1=t1,
    )


def map_from_coefficients(p_coeffs, q_coeffs, prime: int) -> RationalMap:
    require_prime(prime)
    return normalize_map(
        Polynomial.of(p_coeffs, prime), Polynomial.of(q_coeffs, prime)
    )
