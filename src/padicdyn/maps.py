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

from .errors import PoleInDomain, ZeroDenominator
from .padics import int_valuation, require_prime
from .polynomials import (
    Polynomial,
    _cleared,
    _int_add,
    _int_content,
    _int_divexact,
    _int_gcd,
    _int_mul,
    _lcm_denominator,
    poly_eval,
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

    def __str__(self):
        return f"({self.P})/({self.Q})"


def normalize_map(P_raw: Polynomial, Q_raw: Polynomial) -> RationalMap:
    """Build the normalized map for a numerator/denominator pair.

    Steps, in integers: clear both denominators at once, remove the
    polynomial gcd (positive leading coefficient, so Q keeps the sign of
    Q_raw's leading coefficient) and the joint content, then factor
    unit-leading P1, Q1 and the p-power alpha.
    """
    p = P_raw.prime
    if Q_raw.is_zero():
        raise ZeroDenominator("rational map with zero denominator polynomial")
    den = _lcm_denominator(P_raw.coefficients + Q_raw.coefficients)
    P = _cleared(P_raw.coefficients, den)
    Q = _cleared(Q_raw.coefficients, den)
    if P:
        g = _int_gcd(P, Q)
        if len(g) > 1:
            P = _int_divexact(P, g)
            Q = _int_divexact(Q, g)
    c = _int_content(P + Q)
    P = [a // c for a in P]
    Q = [b // c for b in Q]

    alpha_p = int_valuation(P[-1], p) if P else 0
    alpha_q = int_valuation(Q[-1], p)
    dP = [i * a for i, a in enumerate(P)][1:]
    dQ = [i * b for i, b in enumerate(Q)][1:]
    t1 = _int_add(_int_mul(dP, Q), _int_mul(P, dQ), -1)
    return RationalMap(
        P=Polynomial.of(P, p),
        Q=Polynomial.of(Q, p),
        alpha=alpha_p - alpha_q,
        P1=Polynomial.of([Fraction(a, p**alpha_p) for a in P], p),
        Q1=Polynomial.of([Fraction(b, p**alpha_q) for b in Q], p),
        m=len(P) - 1,
        n=len(Q) - 1,
        prime=p,
        t1=Polynomial.of(t1, p),
    )


def map_from_coefficients(p_coeffs, q_coeffs, prime: int) -> RationalMap:
    require_prime(prime)
    return normalize_map(
        Polynomial.of(p_coeffs, prime), Polynomial.of(q_coeffs, prime)
    )
