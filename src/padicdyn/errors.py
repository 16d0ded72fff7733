"""Exception types raised by the analysis layers.

Every error that a verdict can hinge on carries enough data to be
machine-checkable (offending ball, valuations, levels), not just a message.
"""

from __future__ import annotations


class PadicDynError(Exception):
    """Base class for all library errors."""


class PrimeMismatch(PadicDynError):
    """Two values from different p-adic contexts were combined."""


class ZeroDenominator(PadicDynError):
    """A rational map or coefficient was built with a zero denominator."""


class ParseError(PadicDynError):
    """Rejected input text; ``offset`` is the byte position of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class EmptyDomain(PadicDynError):
    """Domain algebra produced the empty set."""


class LevelTooCoarse(PadicDynError):
    """Requested a decomposition level above the domain's base level or
    above the certified scaling radius."""


class DecompositionTooLarge(PadicDynError):
    """A decomposition would exceed the configured ball budget."""


class NotForwardInvariant(PadicDynError):
    """The map sends ``count`` balls of the domain outside it; ``first`` is
    the (ball, image point) pair of the one with the smallest key."""

    def __init__(self, message: str, count: int, first):
        super().__init__(message)
        self.count = count
        self.first = first


class HenselPreconditionFailed(PadicDynError):
    """|F(seed)| >= |F'(seed)|^2, so the lifting lemma does not apply."""

    def __init__(self, value_valuation, derivative_valuation):
        super().__init__(
            "lifting needs |F(seed)| < |F'(seed)|^2: got valuations "
            f"v(F(seed))={value_valuation}, v(F'(seed))={derivative_valuation}"
        )
        self.value_valuation = value_valuation
        self.derivative_valuation = derivative_valuation


class InvalidHenselInput(PadicDynError, ValueError):
    """The polynomial, seed or precision given to a lift is out of range
    (non-integer coefficients, a seed of negative valuation, a precision
    below 1 or one whose p^k has more than 4,300 decimal digits)."""


class DepthCapExceeded(PadicDynError):
    """A descent hit its depth cap before reaching a certificate."""

    def __init__(self, message: str, level=None, suspect_ball=None):
        super().__init__(message)
        self.level = level
        self.suspect_ball = suspect_ball


class RootCertified(PadicDynError):
    """A root of the polynomial provably lies inside the domain, so no
    positive lower bound for |F| exists there."""

    def __init__(self, message: str, ball=None):
        super().__init__(message)
        self.ball = ball


class PoleInDomain(PadicDynError):
    """The denominator has a (certified) root in the domain: the map is not
    defined everywhere on it."""

    def __init__(self, message: str, ball=None):
        super().__init__(message)
        self.ball = ball


class DerivativeRootInDomain(PadicDynError):
    """The derivative has a (certified) root in the domain: the map is not
    locally scaling around that point, and radius/level machinery that
    requires a root-free derivative does not apply."""


class NotOneLipschitz(PadicDynError):
    """The map is not locally 1-Lipschitz on the domain, so the cycle
    criteria for measure preservation and ergodicity do not apply."""


class ConstantTermNotIntegral(PadicDynError):
    """The constant term of the rescaled two-variable edge polynomial has
    negative valuation; no rescaling exponent can fix it."""


class InvalidPrime(PadicDynError):
    """The modulus given as p is not a prime."""


class CertificateFailed(PadicDynError):
    """A certificate failed its own check: the computed object contradicts
    the bound it was derived from.  This is a library defect, never a
    verdict."""
