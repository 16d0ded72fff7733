"""Exact p-adic bookkeeping for rational numbers.

A point of Q_p is a plain ``Fraction``; the prime lives with the object that
holds the point (ball, domain, map).  The valuation
v(x) = v_p(numerator) - v_p(denominator) is always an exact integer
(infinity for 0), and the norm |x| = p^(-v(x)) is only ever handled through
its integer exponent -v(x).  Nothing here rounds.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Union

from .errors import InvalidPrime

INF = math.inf
NEG_INF = -math.inf

# exact integer except for the +/- infinity sentinels
ExtendedInt = Union[int, float]

# Miller-Rabin with these bases is exact below the limit (Sorenson & Webster)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


@lru_cache(maxsize=64)
def require_prime(p: int) -> None:
    """Raise InvalidPrime unless p is a prime below the exact-test limit.
    Each prime is tested once, and then remembered while it is among the 64
    latest ones checked; a refusal raises, so the memo never stores one."""
    if p >= _MR_LIMIT:
        raise InvalidPrime(f"p = {p} is beyond the exact primality test (limit {_MR_LIMIT})")
    if p < 2 or any(p % q == 0 for q in _MR_BASES if q < p):
        raise InvalidPrime(f"p must be a prime: got {p}")
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        if a >= p:
            break
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            raise InvalidPrime(f"p must be a prime: got {p}")


def int_valuation(n: int, p: int) -> ExtendedInt:
    """Largest e with p^e dividing n; INF for n = 0.  Raises InvalidPrime
    for p < 2, where the division loop would never end.  Past the first
    few factors of p, where nearly every call stops, ``_split_power``
    takes over."""
    if n == 0:
        return INF
    if p < 2:
        raise InvalidPrime(f"p must be a prime: got {p}")
    v = 0
    while n % p == 0:
        if v == 8:
            return v + _split_power(n, p)[0]
        n //= p
        v += 1
    return v


def _split_power(n: int, q: int) -> tuple[int, int]:
    """(e, n / q^e) for the largest e with q^e dividing n != 0, from the
    same split of n / q by q^2: O(log e) divisions instead of e."""
    if n % q:
        return 0, n
    e, n = _split_power(n // q, q * q)
    if n % q:
        return 2 * e + 1, n
    return 2 * e + 2, n // q


def ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def fraction_valuation(x: Fraction, p: int) -> ExtendedInt:
    if x == 0:
        return INF
    # a reduced fraction has p-powers in at most one of the two parts
    vn = int_valuation(x.numerator, p)
    if vn:
        return vn
    return -int_valuation(x.denominator, p)


def unit_residue(x: Fraction, p: int, modulus_exponent: int) -> int:
    """Canonical integer representative of x modulo p^k for v(x) >= 0.

    The denominator must be coprime to p, which holds exactly when the
    valuation is nonnegative.
    """
    if modulus_exponent <= 0:
        return 0
    mod = p**modulus_exponent
    num = x.numerator % mod
    den = x.denominator % mod
    if den == 1:
        return num
    return (num * pow(den, -1, mod)) % mod


def canonical_key(x: Fraction, level: int, p: int) -> Fraction:
    """The unique finite base-p expansion congruent to x with all digits at
    exponents below -level.

    This is the canonical center of the closed ball of radius p^level
    containing x; two points share a level-t ball exactly when their keys
    agree.
    """
    if x == 0:
        return Fraction(0)
    v = fraction_valuation(x, p)
    if v >= -level:
        return Fraction(0)
    # x = p^v * u with u a unit; keep the expansion of u up to p^(-level-v)
    pv = Fraction(p) ** v
    u = x / pv
    r = unit_residue(u, p, -level - int(v))
    return r * pv
