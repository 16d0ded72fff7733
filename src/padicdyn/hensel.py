"""Root lifting by Newton iteration in exact arithmetic.

The classical criterion |F(a)| < |F'(a)|^2 guarantees a unique root a' with
|a' - a| <= |F(a)|/|F'(a)|.  Iterates are reduced modulo p^K with K chosen
large enough that the reduction never disturbs the requested precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import CertificateFailed, HenselPreconditionFailed, InvalidHenselInput
from .padics import INF, NEG_INF, ExtendedInt, fraction_valuation, unit_residue
from .polynomials import _int_derivative, _is_int_polynomial, poly_eval

_MAX_NEWTON_STEPS = 128
# the root is below p^k and is printed in decimal; CPython refuses to print
# ints of more digits than this by default
MAX_ROOT_DIGITS = 4300


@dataclass(frozen=True)
class HenselResult:
    root: Fraction  # truncated to the requested precision exponent
    bound_exponent: ExtendedInt  # t with |root - seed| <= p^t
    precision_exponent: int
    steps: int


def hensel_precondition(
    F: Sequence[int], p: int, seed: Fraction
) -> tuple[ExtendedInt, ExtendedInt]:
    """Valuations (v(F(seed)), v(F'(seed))); raises unless v(F) > 2 v(F')."""
    v_val = fraction_valuation(poly_eval(F, seed), p)
    v_der = fraction_valuation(poly_eval(_int_derivative(F), seed), p)
    if v_der is INF or not v_val > 2 * v_der:
        raise HenselPreconditionFailed(v_val, v_der)
    return v_val, v_der


def hensel_lift(
    F: Sequence[int], p: int, seed: Fraction, precision_exponent: int
) -> HenselResult:
    """Lift the seed to a root of F modulo p^precision.

    Preconditions: integer coefficients, integral seed, a precision k >= 1
    with p^k of at most MAX_ROOT_DIGITS decimal digits, and the strict
    inequality |F(seed)| < |F'(seed)|^2.  The returned root r satisfies
    |F(r)| <= p^(-precision) and |r - seed| <= |F(seed)|/|F'(seed)|.
    """
    if not _is_int_polynomial(F):
        raise InvalidHenselInput("lifting requires integer coefficients without trailing zeros")
    if fraction_valuation(seed, p) < 0:
        raise InvalidHenselInput("lifting requires a seed of valuation >= 0")
    k = precision_exponent
    if k < 1:
        raise InvalidHenselInput("precision exponent must be positive")
    if _exceeds_digits(p, k):
        raise InvalidHenselInput(
            f"precision exponent {k} is too large: {p}^{k} has more than "
            f"{MAX_ROOT_DIGITS} decimal digits"
        )
    v_val, v_der = hensel_precondition(F, p, seed)
    if v_val is INF:
        return HenselResult(Fraction(unit_residue(seed, p, k)), NEG_INF, k, 0)
    bound = v_der - v_val  # exponent of the distance bound
    dF = _int_derivative(F)
    # reduction modulus: k digits plus slack for the derivative valuation
    K = k + 2 * int(v_der) + 2
    x = unit_residue(seed, p, K)
    steps = 0
    while True:
        fx = poly_eval(F, x)
        if fraction_valuation(fx, p) >= k:
            break
        steps += 1
        if steps > _MAX_NEWTON_STEPS:
            raise CertificateFailed(
                f"Newton iteration failed to converge in {_MAX_NEWTON_STEPS} steps"
            )
        x = unit_residue(x - fx / poly_eval(dF, x), p, K)
    root = Fraction(unit_residue(x, p, k))
    if fraction_valuation(poly_eval(F, root), p) < k:
        raise CertificateFailed(f"lifted root {root} is not a root of F modulo {p}^{k}")
    if fraction_valuation(root - seed, p) < -bound:
        raise CertificateFailed(
            f"lifted root {root} lies outside the certified radius p^{bound} of {seed}"
        )
    return HenselResult(root, bound, k, steps)


def _exceeds_digits(p: int, k: int) -> bool:
    """Whether p^k has more than MAX_ROOT_DIGITS decimal digits; p^k is
    only formed when k log10(p) lies within 1 of the limit."""
    e = k * math.log10(p)
    if abs(e - MAX_ROOT_DIGITS) > 1:
        return e > MAX_ROOT_DIGITS
    return p**k >= 10**MAX_ROOT_DIGITS
