"""Rational maps f = P/Q in normalized form.

Normalization makes P and Q coprime integer polynomials (tuples of ints,
lowest degree first) with joint content 1, and reads off the factor
f = p^alpha * P1/Q1 with P1 = P / p^v(lead P) and Q1 = Q / p^v(lead Q) of
unit leading coefficients; P1 and Q1 are not stored, since each of their
coefficient valuations is v(P_i) - v(lead P) (likewise for Q).  The
auxiliary polynomial T1 = P'Q - PQ' (the numerator of Q^2 f') is computed
once; it drives the scaling analysis and the subsidiary edge bounds.

``RationalMap.rescaled(M)`` is f's one integer form on B(0, M), which every
kernel reads: the level digraphs, the subsidiary data, the scalar profile
and the global witness check.  A map builds it once per M and keeps it, so
the kernels of one analysis share one form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Sequence

from .errors import PoleInDomain, ZeroDenominator
from .padics import int_valuation, require_prime
from .polynomials import (
    _int_add,
    _int_content,
    _int_derivative,
    _int_divexact,
    _int_gcd,
    _int_mul,
    _rescaled_coefficients,
    poly_eval,
)


@dataclass(frozen=True)
class RescaledMap:
    """f on B(0, M) in integers: g(y) = p^M f(y / p^M) = num(y) / den(y) and
    g'(y) = t1(y) / den(y)^2, coefficients lowest degree first.

    num, den and t1 are p^(M(d + 1)) P(y / p^M), p^(Md) Q(y / p^M) and
    p^(2Md) T1(y / p^M) for d = max(deg P, deg Q), over p^e, p^e and p^(2e)
    for the largest p^e dividing every coefficient of the first two.  That
    leaves g as it is, but den can become a unit: for a polynomial map it is
    a constant.  With o = ``offset`` = Md - e and a = y / p^M, the i-th
    Taylor coefficients of Q and P at a are p^(Mi - o) and p^(M(i - 1) - o)
    times those of den and num at y, and v(T1(a)) = v(t1(y)) - 2o.
    """

    prime: int
    M: int
    num: tuple[int, ...]
    den: tuple[int, ...]
    t1: tuple[int, ...]
    offset: int


@dataclass(frozen=True)
class RationalMap:
    P: tuple[int, ...]
    Q: tuple[int, ...]
    alpha: int
    m: int  # deg P (-1 for the zero map)
    n: int  # deg Q
    prime: int
    t1: tuple[int, ...]  # P'Q - PQ', the numerator of Q^2 * f'

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

    def rescaled(self, M: int) -> RescaledMap:
        """f's integer form on B(0, M), M >= 0: built once per M and map,
        and kept in ``_forms``, outside the fields, so ``==``, ``hash`` and
        ``repr`` do not see it."""
        if M in self._forms:
            return self._forms[M]
        p, d = self.prime, max(self.m, self.n)
        num, den, t1 = (
            _rescaled_coefficients(F, p, k, M)
            for F, k in ((self.P, d + 1), (self.Q, d), (self.t1, 2 * d))
        )
        e = int_valuation(gcd(*num, *den), p)
        pe = p**e
        form = self._forms[M] = RescaledMap(
            p, M, tuple(c // pe for c in num), tuple(c // pe for c in den),
            tuple(c // pe // pe for c in t1), M * d - e,
        )
        return form

    @cached_property
    def _forms(self) -> dict[int, RescaledMap]:
        return {}


def normalize_map(
    P_raw: Sequence[int | Fraction], Q_raw: Sequence[int | Fraction], p: int
) -> RationalMap:
    """The normalized map P_raw/Q_raw over Q_p, for coefficient sequences
    (ints or ``Fraction``s, lowest degree first).

    Steps, in integers: clear both denominators at once, remove the
    polynomial gcd (positive leading coefficient, so Q keeps the sign of
    Q_raw's leading coefficient) and the joint content, then read alpha off
    the leading coefficients.
    """
    require_prime(p)
    den = lcm(*(c.denominator for c in P_raw), *(c.denominator for c in Q_raw))
    P = _trimmed([c.numerator * (den // c.denominator) for c in P_raw])
    Q = _trimmed([c.numerator * (den // c.denominator) for c in Q_raw])
    if not Q:
        raise ZeroDenominator("rational map with zero denominator polynomial")
    if P and len(Q) > 1:  # the gcd with a constant Q is a constant
        g = _int_gcd(P, Q)
        if len(g) > 1:
            P = _int_divexact(P, g)
            Q = _int_divexact(Q, g)
    c = _int_content(P + Q)
    if c > 1:
        P = [a // c for a in P]
        Q = [b // c for b in Q]
    alpha_p = int_valuation(P[-1], p) if P else 0
    t1 = _int_add(_int_mul(_int_derivative(P), Q), _int_mul(P, _int_derivative(Q)), -1)
    return RationalMap(
        P=tuple(P),
        Q=tuple(Q),
        alpha=alpha_p - int_valuation(Q[-1], p),
        m=len(P) - 1,
        n=len(Q) - 1,
        prime=p,
        t1=tuple(t1),
    )


def _trimmed(coeffs: list[int]) -> list[int]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs
