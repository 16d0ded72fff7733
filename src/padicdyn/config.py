"""Tunable limits of the descents, the decompositions and the intrinsic-level
search."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DecompositionTooLarge, PadicDynError


@dataclass(frozen=True)
class AnalysisConfig:
    # levels below the start allowed in lower-bound descents
    descent_cap: int = 32
    # hard budget on balls produced by a single decomposition
    ball_cap: int = 1_000_000
    # extra coincidence levels required below an intrinsic-level candidate
    intrinsic_margin: int = 2

    def __post_init__(self):
        for name in ("descent_cap", "intrinsic_margin"):
            if getattr(self, name) < 0:
                raise PadicDynError(f"{name} must be at least 0, got {getattr(self, name)}")

    def check_ball_budget(self, count: int, what: str, level: int) -> None:
        """Raise DecompositionTooLarge when ``what`` needs more than
        ``ball_cap`` balls at ``level``."""
        if count > self.ball_cap:
            # CPython refuses to print ints of more than 4,300 digits
            shown = count if count < 10**4300 else f"at least 2^{count.bit_length() - 1}"
            raise DecompositionTooLarge(
                f"{what} at level {level} needs {shown} balls (cap {self.ball_cap})"
            )


DEFAULT_CONFIG = AnalysisConfig()
