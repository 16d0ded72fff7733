"""Level digraphs of a rational map on a compact open domain.

One vertex per level-t ball; the unique out-edge of a ball is the ball
containing the image of its canonical representative (a single evaluation
suffices because the map is locally 1-Lipschitz at and below the certified
transport level).  Edges are computed on plain integers: after rescaling
the domain into Z_p, a key is a residue y mod p^(M - t) and its image is
P(y) Q(y)^-1 of the rescaled integer polynomials.  A digraph stores sorted
residues and one successor index per vertex; Balls are built on demand.
Cycle structure decides measure preservation and semi-decides ergodicity and
minimality; subsidiary edge data decides how far the finite digraphs
certify the infinite family.  ``Analysis`` answers these questions for one
map and domain from one classification, building each level once.  Its
single-cycle scan builds no level it can certify by one orbit walk at the
deepest level, and keeps none.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property

from .config import DEFAULT_CONFIG, AnalysisConfig
from .domains import Ball, CompactDomain, decompose_residues
from .errors import (
    CertificateFailed,
    ConstantTermNotIntegral,
    DecompositionTooLarge,
    DepthCapExceeded,
    DerivativeRootInDomain,
    LevelAboveIntrinsic,
    LevelTooCoarse,
    NotForwardInvariant,
    NotOneLipschitz,
    PoleInDomain,
)
from .maps import RationalMap
from .padics import INF, NEG_INF, ExtendedInt, ceil_div, int_valuation
from .polynomials import _rescaled_coefficients, _taylor_coefficients
from .scaling import LOCALLY_ISOMETRIC, ScalingReport, _check_primes, classify

MEASURE_PRESERVING = "MeasurePreserving"
NOT_MEASURE_PRESERVING = "NotMeasurePreserving"
UNDECIDED = "Undecided"
NOT_ERGODIC = "NotErgodic"
SINGLE_CYCLE_TO_DEPTH = "SingleCycleToDepth"


@dataclass(frozen=True)
class SubsidiaryEdgeData:
    s_exponent: int
    # exponents of the four bounds compared against p^t, in order:
    # rescaling, radius/scalar, denominator-vs-its-derivative, lifting
    bound_exponents: tuple[ExtendedInt, ExtendedInt, ExtendedInt, ExtendedInt]
    passes: bool


class _Vertices(Sequence):
    """A digraph's vertices as Balls, each built when it is read."""

    def __init__(self, G: "LevelDigraph"):
        self._G = G

    def __len__(self) -> int:
        return len(self._G.residues)

    def __getitem__(self, i: int) -> Ball:
        return Ball(self._G.level, self._G.keys[i], self._G.prime)


@dataclass(frozen=True)
class LevelDigraph:
    """Vertex i is the level ball keyed residues[i] / p^height (sorted by
    key); its out-edge goes to vertex succ[i].  ``subsidiary`` holds the
    admission data of each vertex's edge, in vertex order."""

    prime: int
    level: int
    height: int
    residues: tuple[int, ...]
    succ: tuple[int, ...]
    subsidiary: tuple[SubsidiaryEdgeData, ...] | None = None

    @cached_property
    def keys(self) -> tuple[Fraction, ...]:
        scale = self.prime**self.height
        return tuple(Fraction(y, scale) for y in self.residues)

    @cached_property
    def key_strings(self) -> list[str]:
        """``str`` of each key, as the CLI and the renderers print it."""
        if self.height == 0:
            # an integral key prints as the integer it equals
            return [str(y) for y in self.residues]
        return [str(k) for k in self.keys]

    @property
    def vertices(self) -> Sequence[Ball]:
        return _Vertices(self)

    @property
    def is_subsidiary_equal(self) -> bool:
        if self.subsidiary is None:
            raise ValueError("subsidiary data was not computed")
        return all(d.passes for d in self.subsidiary)

    def in_degrees(self) -> list[int]:
        """In-degree of each vertex, in vertex order."""
        deg = [0] * len(self.succ)
        for j in self.succ:
            deg[j] += 1
        return deg


@dataclass(frozen=True)
class CycleDecomposition:
    """Cycles and tails of a level digraph as vertex indices."""

    cycle_indices: tuple[tuple[int, ...], ...]
    tail_indices: tuple[int, ...]

    @property
    def is_union_of_cycles(self) -> bool:
        return not self.tail_indices

    @property
    def is_single_cycle(self) -> bool:
        return not self.tail_indices and len(self.cycle_indices) == 1

    @property
    def cycle_lengths(self) -> list[int]:
        return sorted(len(c) for c in self.cycle_indices)


@dataclass(frozen=True)
class ComponentSelection:
    level: int
    cycle: tuple[Ball, ...]
    verdict: str  # MeasurePreserving / NotMeasurePreserving
    route: str  # "isometric" or "refinement"
    witness_level: int | None = None
    witness_ball: Ball | None = None


@dataclass(frozen=True)
class MPVerdict:
    kind: str  # MeasurePreserving / NotMeasurePreserving / Undecided
    witness_level: int | None = None
    witness_ball: Ball | None = None
    in_degree: int | None = None
    scanned_to: int | None = None
    intrinsic_level: int | None = None
    route: str = ""


@dataclass(frozen=True)
class ErgodicVerdict:
    kind: str  # NotErgodic / SingleCycleToDepth
    level: int | None = None
    cycle_count: int | None = None
    depth: int | None = None


def build_digraph(
    f: RationalMap,
    X: CompactDomain,
    t: int,
    config: AnalysisConfig = DEFAULT_CONFIG,
) -> LevelDigraph:
    """The level-t digraph: one out-edge per ball, towards the ball holding
    the image of its key.

    Requires the domain to be forward invariant at the representatives.
    The edges are f's level-t digraph only at or below the certified
    transport level, which ``Analysis.digraph`` checks before it builds.
    """
    _check_primes(f, X)
    M, residues = decompose_residues(X, t, config)
    succ = _successors(f, X, t, M, residues)
    return LevelDigraph(
        prime=f.prime,
        level=t,
        height=M,
        residues=tuple(residues),
        succ=tuple(succ),
    )


def _successors(
    f: RationalMap, X: CompactDomain, t: int, M: int, residues: list[int]
) -> list[int]:
    """Index of the ball holding the image of each ball's key.

    The image's rescaled key (see ``_rescaled_image``) names a ball of X
    exactly when it is one of ``residues``.  Raises PoleInDomain at the first
    key where Q vanishes and NotForwardInvariant listing every ball whose
    image leaves X, with the images from ``f.eval``.
    """
    image = _rescaled_image(f, M, f.prime ** (M - t))
    index = dict(zip(residues, range(len(residues))))
    succ = [index.get(image(y)) for y in residues]
    if None in succ:
        scale = f.prime**M
        pairs = [
            (Ball(t, Fraction(y, scale), f.prime), f.eval(Fraction(y, scale)))
            for y, j in zip(residues, succ)
            if j is None
        ]
        raise NotForwardInvariant(
            f"{len(pairs)} ball(s) leave the domain, first: "
            f"{pairs[0][0]} -> {pairs[0][1]}",
            escaping=pairs,
        )
    return succ


def _rescaled_image(f: RationalMap, M: int, mod: int) -> Callable[[int], int | None]:
    """The map from a rescaled key y to the rescaled key of its image,
    p^M f(y / p^M) mod ``mod``; None where that image is not integral (it
    leaves B(0, M)).

    With x = y / p^M and d = max(deg P, deg Q), f(x) = P^(y) / Q^(y) for
    the integer polynomials P^(y) = p^(Md) P(y / p^M) and likewise Q^.  The
    returned function raises PoleInDomain at a key where Q vanishes.
    """
    p = f.prime
    scale = p**M
    d = max(f.m, f.n)
    # p^M P^ and Q^, highest degree first, for Horner's scheme; P may be 0
    P_hat = _rescaled_coefficients(f.P, p, d, M)
    num_top, *num_coeffs = [scale * c for c in reversed(P_hat)] or [0]
    den_top, *den_coeffs = reversed(_rescaled_coefficients(f.Q, p, d, M))

    def image(y: int) -> int | None:
        num = num_top
        for c in num_coeffs:
            num = num * y + c
        den = den_top
        for c in den_coeffs:
            den = den * y + c
        if den % p:
            return num * pow(den, -1, mod) % mod
        if den == 0:
            f.eval(Fraction(y, scale))  # raises PoleInDomain
            raise CertificateFailed(
                f"the rescaled denominator vanishes at {y}, but Q has no root at "
                f"{Fraction(y, scale)}"
            )
        # with den = p^k * unit, the image num / den is integral exactly
        # when p^k divides num = p^M P^(y)
        k = 0
        while den % p == 0:
            den //= p
            k += 1
        num, rest = divmod(num, p**k)
        if rest:
            return None
        return num * pow(den, -1, mod) % mod

    return image


def subsidiary_edge_data(
    num: list[int], den: list[int], p: int, M: int,
    y: int, y_image: int, t: int, radius_exponent: int,
) -> SubsidiaryEdgeData:
    """Admission data of the level-t edge from the key a = y / p^M to the key
    b = y_image / p^M, for the rescaled P^ = ``num`` and Q^ = ``den``.

    The edge is kept when p^t is at most each of: p^(-s); p^l / |f'(a)|;
    |Q(a)| |f'(a)| / |Q'(a)|; p^(-2s) |Q(a)| |f'(a)|^2 (third bound infinite
    when Q'(a) = 0).  s is the least s >= 0 making P(p^s x + a) -
    (p^s y + b) Q(p^s x + a) integral; a monomial of total degree k scales by
    p^(sk).  The i-th coefficient of P(x + a) is p^(M(i - d)) Ph_i for the
    integer Taylor coefficients Ph of P^(z + y), and likewise for Q.
    """
    d = max(len(num), len(den)) - 1
    # padded so that Ph_1 and Qh_1 exist for constant P and Q
    Ph = _taylor_coefficients(num, y) + [0] * (d + 2 - len(num))
    Qh = _taylor_coefficients(den, y) + [0] * (d + 2 - len(den))
    s = 0
    if M:  # with M = 0 every coefficient is an integer
        pM = p**M
        # constant term: P(a) - b Q(a) = p^(-M(d + 1)) (p^M Ph_0 - y_image Qh_0)
        c = pM * Ph[0] - y_image * Qh[0]
        if c and int_valuation(c, p) < M * (d + 1):
            raise ConstantTermNotIntegral(
                "constant term P(a) - b Q(a) has negative valuation at "
                f"a={Fraction(y, pM)}, b={Fraction(y_image, pM)}"
            )
        for i in range(d + 1):
            # the x^i y^1 coefficient -Q_a[i], and for i >= 1 the x^i y^0
            # coefficient P_a[i] - b Q_a[i]
            if Qh[i]:
                s = max(s, ceil_div(-int_valuation(Qh[i], p) - M * (i - d), i + 1))
            c = pM * Ph[i] - y_image * Qh[i]
            if i and c:
                s = max(s, ceil_div(-int_valuation(c, p) - M * (i - d - 1), i))
    # Q(a) = p^(-Md) Qh_0, Q'(a) = p^(M(1 - d)) Qh_1 and
    # T1(a) = (P'Q - PQ')(a) = p^(M(1 - 2d)) (Ph_1 Qh_0 - Ph_0 Qh_1)
    vq = int_valuation(Qh[0], p) - M * d
    t1 = Ph[1] * Qh[0] - Ph[0] * Qh[1]
    vt = int_valuation(t1, p) + M * (1 - 2 * d)
    vqd = int_valuation(Qh[1], p) + M * (1 - d)
    e: ExtendedInt = NEG_INF if t1 == 0 else 2 * vq - vt
    b1: ExtendedInt = -s
    b2: ExtendedInt = NEG_INF if e is NEG_INF else radius_exponent - e
    b3: ExtendedInt = (
        INF if Qh[1] == 0 else (NEG_INF if e is NEG_INF else vqd - vq + e)
    )
    b4: ExtendedInt = NEG_INF if e is NEG_INF else -2 * s - vq + 2 * e
    passes = t <= min(b1, b2, b3, b4)
    return SubsidiaryEdgeData(s, (b1, b2, b3, b4), passes)


def cycle_decomposition(G: LevelDigraph) -> CycleDecomposition:
    """Cycles and tails of the out-degree-1 functional graph.

    Deterministic: cycles are rotated to start at their smallest key and
    sorted by that key (vertex indices follow key order).
    """
    succ = G.succ
    walk = [0] * len(succ)  # 1 + the start of the walk that reached a vertex
    on_cycle = bytearray(len(succ))
    cycles = []
    for start in range(len(succ)):
        if walk[start]:
            continue
        mark = start + 1
        v = start
        while not walk[v]:
            walk[v] = mark
            v = succ[v]
        if walk[v] == mark:
            # this walk closed a new cycle through v
            cyc = [v]
            u = succ[v]
            while u != v:
                cyc.append(u)
                u = succ[u]
            k = cyc.index(min(cyc))
            cycles.append(tuple(cyc[k:] + cyc[:k]))
            for u in cyc:
                on_cycle[u] = 1
    cycles.sort()
    return CycleDecomposition(
        cycle_indices=tuple(cycles),
        tail_indices=tuple(i for i, c in enumerate(on_cycle) if not c),
    )


def union_verdict(components: list[ComponentSelection]) -> str:
    return (
        MEASURE_PRESERVING
        if all(c.verdict == MEASURE_PRESERVING for c in components)
        else NOT_MEASURE_PRESERVING
    )


class Analysis:
    """Everything attached to f on X, from one classification of f on X.

    ``report`` is computed on construction.  The transport level, the
    intrinsic level and the digraph of each level (with and without
    subsidiary data) are computed on first use and kept, so each level is
    built once however many questions read it.  ``ergodic`` walks one orbit
    instead and keeps nothing from the walk; only the levels the walk does
    not certify are built and kept.
    """

    def __init__(
        self, f: RationalMap, X: CompactDomain, config: AnalysisConfig = DEFAULT_CONFIG
    ):
        self.f = f
        self.X = X
        self.config = config
        self.report: ScalingReport = classify(f, X, config)
        self._digraphs: dict[int, LevelDigraph] = {}
        self._subsidiaries: dict[int, LevelDigraph] = {}

    @cached_property
    def transport_level(self) -> int:
        """The coarsest level at which every ball maps into one ball."""
        report = self.report
        if not report.is_one_lipschitz or report.transport_level is None:
            raise NotOneLipschitz(
                "digraph levels are only defined for locally 1-Lipschitz maps "
                f"(classification: {report.classification})"
            )
        return report.transport_level

    def digraph(self, t: int) -> LevelDigraph:
        """The level-t digraph, for t at or below the transport level."""
        level = self.transport_level
        if t > level:
            raise LevelTooCoarse(
                f"level {t} is above the certified 1-Lipschitz level {level}"
            )
        if t not in self._digraphs:
            self._digraphs[t] = build_digraph(self.f, self.X, t, self.config)
        return self._digraphs[t]

    def subsidiary(self, t: int) -> LevelDigraph:
        """The level-t digraph with subsidiary admission data on every edge."""
        if t not in self._subsidiaries:
            f, G, level = self.f, self.digraph(t), self.transport_level
            d, M, y = max(f.m, f.n), G.height, G.residues
            num, den = (_rescaled_coefficients(F, f.prime, d, M) for F in (f.P, f.Q))
            data = tuple(
                subsidiary_edge_data(num, den, f.prime, M, y[i], y[j], t, level)
                for i, j in enumerate(G.succ)
            )
            self._subsidiaries[t] = replace(G, subsidiary=data)
        return self._subsidiaries[t]

    @cached_property
    def intrinsic_level(self) -> int:
        """Largest level t where the subsidiary digraph keeps every edge, with
        a guard margin of coinciding levels below it.

        Coincidence below a candidate is verified rather than assumed (it is
        not monotone by construction), so the returned level carries
        ``config.intrinsic_margin`` extra certificate levels.
        """
        level = self.transport_level
        if not self.report.derivative_root_free:
            raise DerivativeRootInDomain(
                "intrinsic level requires a root-free derivative on the domain"
            )
        margin = self.config.intrinsic_margin
        floor = level - self.config.descent_cap
        for t in range(level, floor - 1, -1):
            if all(self.subsidiary(t - j).is_subsidiary_equal for j in range(margin + 1)):
                return t
        raise DepthCapExceeded(
            f"no level down to {floor} has matching digraph and subsidiary digraph",
            level=floor,
        )

    def mp(self) -> MPVerdict:
        """Measure preservation verdict for a locally 1-Lipschitz map.

        Root-free derivative: decided finitely by checking the cycle
        criterion at the intrinsic level and one level below.  With
        derivative roots the criterion is scanned level by level to a depth
        cap and an honest Undecided is returned when every scanned level
        passes.
        """
        level = self.transport_level
        if self.report.derivative_root_free:
            t0 = self.intrinsic_level
            # a failure at a fine level forces failures at all finer levels,
            # so scanning from the top finds the first (coarsest) counterexample
            for t in range(level, t0 - 2, -1):
                verdict = self._cycle_failure(t)
                if verdict is not None:
                    return verdict
            return MPVerdict(
                kind=MEASURE_PRESERVING, intrinsic_level=t0, route="intrinsic"
            )
        floor = level - self.config.mp_scan_depth
        for t in range(level, floor - 1, -1):
            try:
                verdict = self._cycle_failure(t)
            except DecompositionTooLarge:
                return MPVerdict(kind=UNDECIDED, scanned_to=t + 1, route="scan")
            if verdict is not None:
                return verdict
        return MPVerdict(kind=UNDECIDED, scanned_to=floor, route="scan")

    def _cycle_failure(self, t: int) -> MPVerdict | None:
        G = self.digraph(t)
        deg = G.in_degrees()
        if max(deg) <= 1:
            return None
        # the first vertex with in-degree >= 2 has the smallest such key
        i = next(i for i, d in enumerate(deg) if d >= 2)
        return MPVerdict(
            kind=NOT_MEASURE_PRESERVING,
            witness_level=t,
            witness_ball=G.vertices[i],
            in_degree=deg[i],
            route="cycle-criterion",
        )

    def ergodic(self, depth: int) -> ErgodicVerdict:
        """Single-cycle scan down to ``depth``.

        NotErgodic is definitive; a full pass is only a certificate to the
        scanned depth since the criterion quantifies over every level.  The
        same verdict answers minimality.
        """
        level = self.transport_level
        if depth > level:
            raise LevelTooCoarse(f"depth {depth} is above the starting level {level}")
        # the digraphs decide the levels the walk leaves open, and every
        # level when the transport level is above the domain's base level
        start = level
        if level <= self.X.base_level:
            start = self._single_cycles_walked(level, depth)
        for t in range(start, depth - 1, -1):
            dec = cycle_decomposition(self.digraph(t))
            if not dec.is_single_cycle:
                return ErgodicVerdict(
                    kind=NOT_ERGODIC, level=t, cycle_count=len(dec.cycle_indices)
                )
        return ErgodicVerdict(kind=SINGLE_CYCLE_TO_DEPTH, depth=depth)

    def _single_cycles_walked(self, level: int, depth: int) -> int:
        """The first level of ``level`` .. ``depth`` that one orbit walk does
        not certify a single cycle; ``depth - 1`` when it certifies them all.

        Level t <= base level has n_t = len(X.keys) p^(base - t) vertices
        and is a quotient of every finer level: the parent of the image of a
        ball is the successor of its parent.  So the level-K orbit of the
        smallest rescaled key y0, projected mod p^(M - t), is the level-t
        orbit of y0's ball, and level t is a single cycle exactly when that
        projection first comes back to y0 at step n_t.  K is the deepest
        level down to ``depth`` that fits in ``ball_cap``.  The walk stops
        without deciding at an early return, at no return by step n_t, at
        an image outside X and at a pole; the level digraph then decides.
        """
        X, p, cap = self.X, self.f.prime, self.config.ball_cap
        n = len(X.keys) * p ** (X.base_level - level)
        if n > cap:
            return level
        K, n_K = level, n
        while K > depth and n_K * p <= cap:
            K, n_K = K - 1, n_K * p
        M = X.height_exponent()
        scale = p**M
        # decompose_residues' layout: a rescaled key lies in X exactly when
        # its residue mod step is one of the rescaled base keys
        step = p ** (M - X.base_level)
        bases = {int(k * scale) for k in X.keys}
        y0 = min(bases)
        image = _rescaled_image(self.f, M, p ** (M - K))
        t, mod = level, p ** (M - level)
        z = y0
        # i <= n throughout, so step n_K certifies K or stops there
        for i in range(1, n_K + 1):
            try:
                z = image(z)
            except (PoleInDomain, CertificateFailed):
                return t
            if z is None or z % step not in bases:
                return t
            if z % mod == y0:
                if i < n:
                    return t
                # level t is one cycle; step n_t may be an early return at t - 1
                t, n, mod = t - 1, n * p, mod * p
                if t < K:
                    return t
                if z % mod == y0:
                    return t
            elif i == n:
                return t
        return t

    def components(self, t: int) -> list[ComponentSelection]:
        """Per-cycle measure preservation verdicts at a level t <= t0.

        For a local isometry every union of cycles is measure preserving; in
        general a cycle survives exactly when its balls stay a union of
        cycles one level down.  Verdicts for unions combine conjunctively
        (see ``union_verdict``).
        """
        t0 = self.intrinsic_level
        if t > t0:
            raise LevelAboveIntrinsic(
                f"components are certified only at levels <= t0 = {t0}, got {t}"
            )
        G = self.digraph(t)
        V = G.vertices
        cycles = cycle_decomposition(G).cycle_indices
        if self.report.classification == LOCALLY_ISOMETRIC:
            return [
                ComponentSelection(
                    level=t,
                    cycle=tuple(V[i] for i in cyc),
                    verdict=MEASURE_PRESERVING,
                    route="isometric",
                )
                for cyc in cycles
            ]
        finer = self.digraph(t - 1)
        n = len(G.succ)
        out = []
        for cyc in cycles:
            # decompose_residues lists the children of vertex i as the finer
            # vertices i + k n; each maps into a child of its parent's
            # successor, so the children are a union of cycles exactly when
            # each is hit once from among them
            children = [i + k * n for k in range(self.f.prime) for i in cyc]
            hits = Counter(finer.succ[c] for c in children)
            bad = [c for c in children if hits[c] != 1]
            out.append(
                ComponentSelection(
                    level=t,
                    cycle=tuple(V[i] for i in cyc),
                    verdict=NOT_MEASURE_PRESERVING if bad else MEASURE_PRESERVING,
                    route="refinement",
                    witness_level=t - 1 if bad else None,
                    # finer vertices are in key order
                    witness_ball=finer.vertices[min(bad)] if bad else None,
                )
            )
        return out
