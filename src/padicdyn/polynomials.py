"""Dense univariate polynomials over Z as tuples of ints.

A polynomial is a sequence of Python ints, lowest degree first, with no
trailing zeros; ``RationalMap`` holds its P, Q and T1 as tuples.  The zero
polynomial is empty (degree -1).  Evaluation uses Horner's scheme
(``_evaluate``), in integers at an integer point and exact at ``Fraction``
points.  The gcd, exact division, Taylor shifts and the rescaling all run
on integers (the ``_int_*`` helpers).  One probe, ``_ball_probe``, reads
off whether |G| is constant on the ball y + p^k Z_p, from G(y) where that
decides and from G's Taylor coefficients at y elsewhere: every per-ball
certificate asks it at its ball's radius.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from math import gcd as int_gcd
from typing import Sequence

from .padics import INF, ExtendedInt, int_valuation


def poly_eval(F: Sequence[int], a: int | Fraction) -> Fraction:
    """Exact evaluation by Horner's scheme."""
    return Fraction(_evaluate(F, a))


def _evaluate(F: Sequence[int], a: int | Fraction) -> int | Fraction:
    """F(a) by Horner's scheme: an int at an int a."""
    acc = 0
    for c in reversed(F):
        acc = acc * a + c
    return acc


def _is_int_polynomial(F: Sequence) -> bool:
    """Whether F is in the polynomial form: ints, no trailing zeros."""
    return all(isinstance(c, int) for c in F) and not (F and F[-1] == 0)


def _int_derivative(F: Sequence[int]) -> list[int]:
    """Coefficients of F', lowest degree first."""
    return [i * c for i, c in enumerate(F)][1:]


def _taylor_coefficients(coeffs: Sequence, a: int | Fraction) -> list:
    """Coefficients of F(x + a) from F's, both lowest degree first, via
    in-place synthetic shifts; integer coefficients and a stay integers."""
    n = len(coeffs)
    work = list(coeffs)
    for k in range(n - 1):
        for j in range(n - 2, k - 1, -1):
            work[j] += a * work[j + 1]
    return work


def _taylor_polynomials(F: Sequence[int], d: int) -> list[list[int]]:
    """F_0, ..., F_d with F(y + z) = sum_i F_i(y) z^i: the i-th Taylor
    coefficient of F as a polynomial in the centre, sum_k C(k, i) F_k y^(k - i)
    (empty for i > deg F)."""
    return [[comb(k, i) * F[k] for k in range(i, len(F))] for i in range(d + 1)]


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
    g = _int_gcd(G, _int_derivative(G))
    if len(g) <= 1:
        return G
    q = _int_divexact(G, g)
    c = _int_content(q)
    return [a // c for a in q]


def _rescaled_coefficients(F: Sequence[int], p: int, d: int, M: int) -> list[int]:
    """Integer coefficients of p^(Md) F(y / p^M), lowest degree first, for
    d >= deg F; y = p^M x takes B(0, M) into Z_p."""
    return [c * p ** (M * (d - i)) for i, c in enumerate(F)]


def _ball_probe(
    G: Sequence[int], p: int, y: int, k: int
) -> tuple[ExtendedInt, ExtendedInt, ExtendedInt, bool]:
    """(v(G(y)), v(G'(y)), v, exact) for an integer G (lowest degree first)
    on the ball y + p^k Z_p: v is the least v(g_j) + jk over the Taylor
    coefficients g_j of G at y, a lower bound on v(G) over the ball, and
    ``exact`` says that the j = 0 term alone attains it, so that |G| is
    constant on the ball.  G = 0 gives (INF, INF, INF, True).  For
    G = ``_rescaled_coefficients(F, p, d, M)`` the j-th Taylor coefficient
    of F at a = y / p^M is p^(M(j - d)) g_j, so v(F(a)) = v(G(y)) - Md,
    v(F'(a)) = v(G'(y)) + M(1 - d), and the ball of x-level t around a is
    y's ball at k = M - t.

    G(y) and G'(y) come first, in one Horner pass.  Where v(G(y)) < k (so
    k >= 1) the constant term decides, as every g_j with j >= 1 is an
    integer and its term has valuation at least jk >= k: the probe returns
    (v0, v(G'(y)), v0, True) without the Taylor shift, which runs only
    where the constant term does not decide.
    """
    value = slope = 0
    for c in reversed(G):
        slope = slope * y + value
        value = value * y + c
    v0, v1 = int_valuation(value, p), int_valuation(slope, p)
    if v0 < k or not G:
        return v0, v1, v0, True
    g = _taylor_coefficients(G, y)
    v = INF
    for j in range(1, len(g)):
        if g[j]:
            v = min(v, int_valuation(g[j], p) + j * k)
    return v0, v1, min(v0, v), v0 < v
