"""Balls and compact open domains with canonical decompositions.

A closed ball of radius p^t is identified by its level t and canonical key:
the unique finite base-p expansion of its center with digits only at
exponents below -t.  A compact open domain is normalized to a disjoint
union of balls at a single base level (differences are resolved by refining;
complete sibling groups are merged back up), which makes equality, measure
and refinement immediate.  A ball's key doubles as its representative point,
so representatives are nested across levels automatically.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from .config import DEFAULT_CONFIG, AnalysisConfig
from .errors import EmptyDomain, LevelTooCoarse, PrimeMismatch
from .padics import canonical_key, fraction_valuation, require_prime


@dataclass(frozen=True)
class Ball:
    """Closed ball of radius p^level with canonical center key."""

    level: int
    key: Fraction
    prime: int

    @staticmethod
    def containing(x: int | Fraction, level: int, p: int) -> "Ball":
        return Ball(level, canonical_key(x, level, p), p)

    @property
    def measure(self) -> Fraction:
        return Fraction(self.prime) ** self.level

    def contains(self, x: int | Fraction) -> bool:
        return fraction_valuation(x - self.key, self.prime) >= -self.level

    def parent(self) -> "Ball":
        return Ball(
            self.level + 1,
            canonical_key(self.key, self.level + 1, self.prime),
            self.prime,
        )

    def subdivide(self, level: int) -> Iterator["Ball"]:
        """All level-t descendants, t <= self.level, in key order."""
        if level > self.level:
            raise LevelTooCoarse(
                f"cannot subdivide a level-{self.level} ball at level {level}"
            )
        yield Ball(level, self.key, self.prime)
        step = Fraction(self.prime) ** (-self.level)
        for j in range(1, self.prime ** (self.level - level)):
            yield Ball(level, self.key + j * step, self.prime)

    def __str__(self):
        return f"B({self.key}, {self.level})"


@dataclass(frozen=True)
class CompactDomain:
    """Finite disjoint union of balls, all stored at one base level."""

    prime: int
    base_level: int
    keys: frozenset[Fraction]

    @staticmethod
    def from_balls(balls: Iterable[Ball]) -> "CompactDomain":
        """The union of ``balls``: a ball inside another is dropped, and the
        rest are refined to the finest level among them."""
        balls = set(balls)
        if not balls:
            raise EmptyDomain("domain with no balls")
        p = next(iter(balls)).prime
        if any(b.prime != p for b in balls):
            raise PrimeMismatch("balls over different primes")
        levels = {b.level for b in balls}
        balls = [
            b for b in balls
            if not any(L > b.level and Ball.containing(b.key, L, p) in balls for L in levels)
        ]
        level = min(b.level for b in balls)
        return CompactDomain(p, level, frozenset(_refined_keys(balls, level)))._coarsened()

    @staticmethod
    def zp(p: int) -> "CompactDomain":
        require_prime(p)
        return CompactDomain(p, 0, frozenset([Fraction(0)]))

    @staticmethod
    def ball(center: int | Fraction, level: int, p: int) -> "CompactDomain":
        require_prime(p)
        return CompactDomain.from_balls([Ball.containing(center, level, p)])

    @staticmethod
    def sphere(radius_exponent: int, p: int) -> "CompactDomain":
        """S_{p^N}(0): the points of norm exactly p^N."""
        require_prime(p)
        n = radius_exponent
        step = Fraction(p) ** (-n)
        balls = [Ball(n - 1, d * step, p) for d in range(1, p)]
        return CompactDomain.from_balls(balls)

    def _coarsened(self) -> "CompactDomain":
        level, keys = self.base_level, self.keys
        while True:
            groups = Counter(canonical_key(k, level + 1, self.prime) for k in keys)
            if any(c != self.prime for c in groups.values()):
                return CompactDomain(self.prime, level, keys)
            level, keys = level + 1, frozenset(groups)

    def balls(self) -> tuple[Ball, ...]:
        return tuple(
            Ball(self.base_level, k, self.prime) for k in sorted(self.keys)
        )

    @property
    def measure(self) -> Fraction:
        return len(self.keys) * Fraction(self.prime) ** self.base_level

    def height_exponent(self) -> int:
        """Smallest M >= level data with X inside the ball of radius p^M
        around 0 (0 when the domain sits inside Z_p)."""
        out = self.base_level
        for k in self.keys:
            if k != 0:
                out = max(out, -int(fraction_valuation(k, self.prime)))
        return max(out, 0)

    def union(self, other: "CompactDomain") -> "CompactDomain":
        self._check(other)
        return CompactDomain.from_balls(self.balls() + other.balls())

    def difference(self, other: "CompactDomain") -> "CompactDomain":
        self._check(other)
        # only the balls that meet the other domain are refined; a ball lies
        # in a coarser (or equal) ball of a domain when the domain holds its key
        mine = [b for b in self.balls() if not (b.level <= other.base_level and b.key in other)]
        theirs = [b for b in other.balls() if b.level < self.base_level and b.key in self]
        level = other.base_level if theirs else self.base_level
        left = _refined_keys(mine, level) - _refined_keys(theirs, level)
        if not left:
            raise EmptyDomain("difference removed every ball")
        return CompactDomain(self.prime, level, frozenset(left))._coarsened()

    def _check(self, other: "CompactDomain"):
        if self.prime != other.prime:
            raise PrimeMismatch("domains over different primes")

    def contains(self, x: int | Fraction) -> bool:
        return canonical_key(x, self.base_level, self.prime) in self.keys

    def __contains__(self, x) -> bool:
        return self.contains(x)

    def __str__(self):
        parts = " + ".join(str(b) for b in self.balls()[:6])
        extra = "" if len(self.keys) <= 6 else f" + ... ({len(self.keys)} balls)"
        return parts + extra


def _refined_keys(balls: list[Ball], level: int) -> set[Fraction]:
    """The keys of the level balls in disjoint ``balls``, refused before any
    is built when they exceed ``ball_cap``."""
    count = sum(b.prime ** (b.level - level) for b in balls)
    DEFAULT_CONFIG.check_ball_budget(count, "decomposition", level)
    return {sub.key for b in balls for sub in b.subdivide(level)}


def decompose(
    X: CompactDomain, t: int, config: AnalysisConfig = DEFAULT_CONFIG
) -> list[Ball]:
    """The unique decomposition of X into level-t balls, sorted by key: the
    Ball view of ``decompose_residues``."""
    M, ys = decompose_residues(X, t, config)
    return [residue_ball(y, t, M, X.prime) for y in ys]


def residue_ball(y: int, t: int, M: int, p: int) -> Ball:
    """The level-t ball keyed y / p^M, for a residue y of
    ``decompose_residues``."""
    return Ball(t, Fraction(y, p**M), p)


def decompose_residues(
    X: CompactDomain, t: int, config: AnalysisConfig = DEFAULT_CONFIG
) -> tuple[int, list[int]]:
    """``decompose`` on integers: (M, ys) with M = X.height_exponent() and
    the level-t balls of X keyed y / p^M for y in ys, sorted.

    Each y is the residue mod p^(M - t) of the rescaled key p^M * key, and
    the level-(t - 1) children of y are y + k p^(M - t), k = 0 .. p - 1.
    """
    _check_decomposition(X, t, config)
    p, M = X.prime, X.height_exponent()
    scale = p**M
    # the rescaled base keys lie in [0, step): adding multiples of step
    # in the outer loop keeps the list sorted; p^M clears each key's
    # denominator, as X lies in the ball of radius p^M
    bases = sorted(k.numerator * (scale // k.denominator) for k in X.keys)
    step = p ** (M - X.base_level)
    return M, [b + s for s in range(0, p ** (M - t), step) for b in bases]


def _check_decomposition(X: CompactDomain, t: int, config: AnalysisConfig) -> None:
    if t > X.base_level:
        raise LevelTooCoarse(
            f"domain is expressed at level {X.base_level}; cannot decompose at {t}"
        )
    config.check_ball_budget(len(X.keys) * X.prime ** (X.base_level - t), "decomposition", t)
