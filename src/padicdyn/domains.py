"""Balls and compact open domains with canonical decompositions.

A closed ball of radius p^t is identified by its level t and canonical key:
the unique finite base-p expansion of its center with digits only at
exponents below -t.  A compact open domain is held as its maximal balls:
disjoint, none inside another, and no complete set of p siblings (those are
merged into their parent).  This form is unique, which makes equality
immediate; measure and ball counts are sums over the few maximal balls, and
a difference splits a ball, on integer residues, only along the path down
to each removed ball, once it has checked that the pieces fit ``ball_cap``.
The domain's base level is its finest maximal level, and its level-t balls
for t at or below it come from ``decompose_residues``.  A ball's key doubles
as its representative point, so representatives are nested across levels
automatically.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable

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
        return Ball.containing(self.key, self.level + 1, self.prime)

    def __str__(self):
        return f"B({self.key}, {self.level})"


@dataclass(frozen=True)
class CompactDomain:
    """Finite disjoint union of balls, held as its maximal balls in key
    order."""

    prime: int
    balls: tuple[Ball, ...]

    @staticmethod
    def from_balls(balls: Iterable[Ball]) -> "CompactDomain":
        """The union of ``balls``: a ball inside another is dropped, and
        every complete set of p siblings is merged into their parent."""
        balls = set(balls)
        if not balls:
            raise EmptyDomain("domain with no balls")
        p = next(iter(balls)).prime
        if any(b.prime != p for b in balls):
            raise PrimeMismatch("balls over different primes")
        # coarsest first: a ball lies inside another when an earlier one holds its key
        order = sorted(balls, key=lambda b: -b.level)
        balls = {b for i, b in enumerate(order) if not any(k.contains(b.key) for k in order[:i])}
        while True:
            parents = Counter(b.parent() for b in balls)
            full = {q for q, c in parents.items() if c == p}
            if not full:
                return CompactDomain(p, tuple(sorted(balls, key=lambda b: b.key)))
            balls = {b for b in balls if b.parent() not in full} | full

    @staticmethod
    def zp(p: int) -> "CompactDomain":
        return CompactDomain.ball(0, 0, p)

    @staticmethod
    def ball(center: int | Fraction, level: int, p: int) -> "CompactDomain":
        require_prime(p)
        return CompactDomain(p, (Ball.containing(center, level, p),))

    @staticmethod
    def sphere(radius_exponent: int, p: int) -> "CompactDomain":
        """S_{p^N}(0): the points of norm exactly p^N."""
        n = radius_exponent
        return CompactDomain.ball(0, n, p).difference(CompactDomain.ball(0, n - 1, p))

    @cached_property
    def base_level(self) -> int:
        """The finest level of a maximal ball: X is a union of level-t balls
        exactly for t at or below it.  Computed once per domain, outside
        the fields, so ``==``, ``hash`` and ``repr`` do not see it."""
        return min(b.level for b in self.balls)

    @property
    def measure(self) -> Fraction:
        return sum(b.measure for b in self.balls)

    def count(self, t: int) -> int:
        """The number of level-t balls in X."""
        if t > self.base_level:
            raise LevelTooCoarse(
                f"domain is expressed at level {self.base_level}; cannot decompose at {t}"
            )
        return sum(self.prime ** (b.level - t) for b in self.balls)

    def height_exponent(self) -> int:
        """Smallest M >= level data with X inside the ball of radius p^M
        around 0 (0 when the domain sits inside Z_p); ``_height``, computed
        once per domain like ``base_level``."""
        return self._height

    @cached_property
    def _height(self) -> int:
        # a nonzero key has digits below -level only, so -v(key) > level
        return max(0, *(
            -int(fraction_valuation(b.key, self.prime)) if b.key else b.level
            for b in self.balls
        ))

    def union(self, other: "CompactDomain") -> "CompactDomain":
        return CompactDomain.from_balls(self.balls + other.balls)

    def difference(self, other: "CompactDomain") -> "CompactDomain":
        """self minus other, split on the integer residues of
        ``decompose_residues``: for the larger height M, the level-t ball
        keyed y / p^M is the residue y mod p^(M - t), and its children at
        level t - 1 add multiples of p^(M - t) to y."""
        p = self.prime
        if p != other.prime:
            raise PrimeMismatch("domains over different primes")
        M = max(self.height_exponent(), other.height_exponent())
        scale = p**M
        removed = [(r.level, p ** (M - r.level), _rescaled_key(r, scale)) for r in other.balls]
        work = [(b.level, p ** (M - b.level), _rescaled_key(b, scale)) for b in self.balls]
        # the pieces, counted before any is formed: a ball with balls of
        # other inside it leaves p - 1 a level on the path down to each (or
        # fewer, where two paths share a level), and any other ball one or none
        DEFAULT_CONFIG.check_ball_budget(sum(
            sum((p - 1) * (t - s) for s, _, z in removed if s < t and z % m == y) or 1
            for t, m, y in work), "difference", min(s for s, _, _ in removed))
        left = []
        while work:
            t, m, y = work.pop()
            if any(s >= t and y % n == z for s, n, z in removed):
                continue
            # a ball of other inside this one: split only along the path down to it
            if any(z % m == y for _, _, z in removed):
                work += [(t - 1, m * p, y + j * m) for j in range(p)]
            else:
                left.append((y, t))
        if not left:
            raise EmptyDomain("difference removed every ball")
        # maximal already: the parent of a piece holds a ball of other or lies outside self
        return CompactDomain(p, tuple(Ball(t, Fraction(y, scale), p) for y, t in sorted(left)))

    def __str__(self):
        parts = " + ".join(str(b) for b in self.balls[:6])
        extra = "" if len(self.balls) <= 6 else f" + ... ({len(self.balls)} balls)"
        return parts + extra


def _rescaled_key(b: Ball, scale: int) -> int:
    """The integer p^M key of a ball inside B(0, M), for scale = p^M."""
    return b.key.numerator * (scale // b.key.denominator)


def residue_ball(y: int, t: int, M: int, p: int) -> Ball:
    """The level-t ball keyed y / p^M, for a residue y of
    ``decompose_residues``."""
    return Ball(t, Fraction(y, p**M), p)


def decompose_residues(
    X: CompactDomain, t: int, config: AnalysisConfig = DEFAULT_CONFIG
) -> tuple[int, list[int]]:
    """The unique decomposition of X into level-t balls, on integers: (M, ys)
    with M = X.height_exponent() and the balls keyed y / p^M for y in ys,
    sorted.

    Each y is the residue mod p^(M - t) of the rescaled key p^M * key, and
    the level-(t - 1) children of y are y + k p^(M - t), k = 0 .. p - 1.
    """
    config.check_ball_budget(X.count(t), "decomposition", t)
    M, levels = start_residues(X, t, config)
    return M, levels[t]


def start_residues(
    X: CompactDomain, t: int, config: AnalysisConfig = DEFAULT_CONFIG
) -> tuple[int, dict[int, list[int]]]:
    """(M, levels): X's maximal balls, each split to level t or, if finer,
    at its own level s, keyed as in ``decompose_residues`` in the sorted
    lists levels[t] and levels[s]; level t must fit ``ball_cap``."""
    p, M = X.prime, X.height_exponent()
    count = sum(p ** (b.level - t) for b in X.balls if b.level >= t)
    config.check_ball_budget(count, "decomposition", t)
    scale, levels = p**M, {t: []}
    for b in X.balls:
        s = min(b.level, t)
        # b's rescaled key lies in [0, p^(M - b.level)), as p^M clears its
        # denominator (X lies in the ball of radius p^M), and its level-s
        # keys add multiples of p^(M - b.level) to it
        y = _rescaled_key(b, scale)
        levels.setdefault(s, []).extend(range(y, p ** (M - s), p ** (M - b.level)))
    # a finer level holds one residue per ball, in the balls' key order
    levels[t].sort()
    return M, levels
