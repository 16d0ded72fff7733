"""Level digraphs of a rational map on a compact open domain.

One vertex per level-t ball; the unique out-edge of a ball is the ball
containing the image of its canonical representative (a single evaluation
suffices because the map is locally 1-Lipschitz at and below the certified
transport level).  Edges are computed on plain integers: after rescaling
the domain into Z_p, a key is a residue y mod p^(M - t) and its image is
num(y) den(y)^-1 on f's integer form (``RationalMap.rescaled``).  One
kernel evaluates num and den (``_expansion``): at an ancestor of the key,
its residue mod p^K1 for some K1 >= ceil((M - t) / 2), it gives a
first-order expansion wherever den is a unit there, and elsewhere the
image of each key on its own.  The images of one such ancestor's
descendants are one arithmetic progression of vertex indices, so a level
costs one expansion per ancestor, not one evaluation per vertex.  A
digraph stores sorted residues and one successor index per vertex; Balls
are built on demand.  Output reads a level in one pass over its vertices:
``LevelDigraph.per_datum`` formats each distinct subsidiary datum once and
gives each edge its datum's text by one lookup, and ``render`` streams
the text into its file in chunks.  Cycle structure decides measure
preservation and semi-decides ergodicity and minimality; subsidiary edge
data decides how far the finite digraphs certify the infinite family, and
on Z_p one datum serves every edge of a ball where |Q|, |Q'| and |T1| are
constant.  ``Analysis`` answers these questions for one map and domain
from one classification, building each level once.  Its measure-preservation
verdicts, for the domain and for each cycle, read two adjacent levels.  Its
single-cycle scan builds no level where cycle lifting certifies every level
from one orbit of a coarse level, and otherwise reads each level digraph
once, without keeping it.  Its intrinsic-level search, which no verdict
runs, builds only the transport level and reads the levels below it off
per-ball bounds.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from itertools import compress
from typing import TypeVar

from .config import DEFAULT_CONFIG, AnalysisConfig
from .domains import Ball, CompactDomain, decompose_residues, residue_ball
from .errors import (
    ConstantTermNotIntegral,
    DecompositionTooLarge,
    DepthCapExceeded,
    DerivativeRootInDomain,
    LevelTooCoarse,
    NotForwardInvariant,
    NotOneLipschitz,
    PoleInDomain,
)
from .maps import RationalMap, RescaledMap
from .padics import INF, NEG_INF, ExtendedInt, ceil_div, int_valuation
from .polynomials import (
    _ball_probe,
    _int_add,
    _evaluate,
    _int_derivative,
    _int_mul,
    _taylor_coefficients,
    _taylor_polynomials,
)
from .scaling import LOCALLY_ISOMETRIC, ScalingReport, _check_primes, classify

MEASURE_PRESERVING = "MeasurePreserving"
NOT_MEASURE_PRESERVING = "NotMeasurePreserving"
UNDECIDED = "Undecided"
NOT_ERGODIC = "NotErgodic"
SINGLE_CYCLE_TO_DEPTH = "SingleCycleToDepth"

T = TypeVar("T")


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
            return list(map(str, self.residues))
        return list(map(str, self.keys))

    @property
    def vertices(self) -> Sequence[Ball]:
        return _Vertices(self)

    @property
    def is_subsidiary_equal(self) -> bool:
        return all(d.passes for d in self._datum_ids[1].values())

    def per_datum(self, fmt: Callable[[SubsidiaryEdgeData], T]) -> Iterator[T]:
        """``fmt`` of each edge's subsidiary datum, in vertex order, with
        ``fmt`` called once per distinct datum object: ``Analysis.subsidiary``
        shares one datum across the edges of a settled ball."""
        ids, distinct = self._datum_ids
        value = {k: fmt(d) for k, d in distinct.items()}
        return map(value.__getitem__, ids)

    @cached_property
    def _datum_ids(self) -> tuple[list[int], dict[int, SubsidiaryEdgeData]]:
        """The id of each edge's subsidiary datum, in vertex order, and each
        distinct datum object by its id."""
        data = self.subsidiary
        if data is None:
            raise ValueError("subsidiary data was not computed")
        ids = list(map(id, data))
        return ids, dict(zip(ids, data))

    @cached_property
    def cycles(self) -> CycleDecomposition:
        """``cycle_decomposition(self)``, computed on first read."""
        return cycle_decomposition(self)

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

    The image's rescaled key z names a ball of X exactly when z mod the
    domain's step p^(M - base level) is a base key; ``decompose_residues``
    puts it at vertex (z // step) nb + j, with nb base keys and j the place
    of z mod step among them.  With K = M - t, the ancestors are the n_a
    keys below p^K1, K1 = max(ceil(K / 2), M - base level): they come first,
    and vertex i + k n_a is keyed residues[i] + k p^K1.  Where den is a unit
    at the ancestor a = residues[i], the images of a's descendants are
    c0 + k c1 p^K1 mod p^K (see ``_expansion``, which holds for any
    K1 >= ceil(K / 2)).  They agree mod the step, so they lie in X together,
    at the vertices (j + k c1 n_a) mod n with j the vertex of c0: one
    progression per ancestor fills succ[i::n_a].  Where den(a) is not a
    unit, neither is den at a's descendants, and ``_expansion`` gives the
    image of each of them on its own, in vertex order.  Raises PoleInDomain
    at the first key where Q vanishes (the ancestors are the vertices below
    n_a, so a pole among them comes first) and NotForwardInvariant with the
    number of balls whose image leaves X and the first of them, its image
    from ``f.eval``.
    """
    form, p, K = f.rescaled(M), f.prime, M - t
    n, nb = len(residues), X.count(X.base_level)
    step = p ** (M - X.base_level)
    bases = dict(zip(residues[:nb], range(nb)))

    def vertex(z: int | None) -> int | None:
        j = None if z is None else bases.get(z % step)
        return None if j is None else z // step * nb + j

    n_a = n // p ** (K - max((K + 1) // 2, M - X.base_level))
    expand, rest = _expansion(form, K), []
    succ: list[int | None] = [None] * n
    for i in range(n_a):
        e = expand(residues[i])
        j = vertex(e[0])
        if len(e) == 1:
            succ[i] = j
            rest.extend(range(i + n_a, n, n_a))
        elif j is not None:
            # n / n_a descendants, c1 n_a apart mod n (n apart for c1 = 0)
            d = e[1] * n_a or n
            succ[i::n_a] = [x % n for x in range(j, j + d * (n // n_a), d)]
    for i in sorted(rest):
        succ[i] = vertex(expand(residues[i])[0])
    if None in succ:
        b = residue_ball(residues[succ.index(None)], t, M, f.prime)
        first = (b, f.eval(b.key))
        count = succ.count(None)
        raise NotForwardInvariant(
            f"{count} ball(s) leave the domain, first: {first[0]} -> {first[1]}",
            count=count,
            first=first,
        )
    return succ


def _expansion(form: RescaledMap, K: int) -> Callable[[int], tuple[int | None, ...]]:
    """The map from a key a to the image of a under the rescaled map g(y) =
    p^M f(y / p^M) = num(y) / den(y) on f's integer form ``form`` on
    B(0, M), mod p^K.

    Where den(a) is a unit it returns (c0, c1) with g(y) = c0 + c1 (y - a)
    mod p^K for every y = a mod p^K1, K1 = ceil(K / 2), c0 in [0, p^K) and
    c1 in [0, p^(K - K1)).  den(a + h) = den(a) (1 + sum_i (Qh_i / den(a))
    h^i) for h in p Z_p, with Qh_i the integer Taylor coefficients of den
    at a, is a unit too; its inverse is the geometric series in those
    integral terms, so g(a + h) = sum_i c_i h^i with every c_i in Z_p.
    Since v(y - a) >= K1 and 2 K1 >= K, the terms of degree 2 and up vanish
    mod p^K, and c0 = g(a) and c1 = g'(a) = t1(a) / den(a)^2; c1 matters
    only mod p^(K - K1).

    Where den(a) = p^k u with k >= 1 and u a unit it returns (c0,), the
    image of a alone: g(a) = num(a) / p^k / u is integral exactly when p^k
    divides num(a), and c0 is g(a) mod p^K then and None otherwise (the
    image leaves B(0, M)).  Where den(a) = 0, that is where Q vanishes, it
    raises PoleInDomain.

    ``_successors`` reads one progression per ancestor from it and the
    image of each other key, the intrinsic-level search the image of each
    key it computes on its own, and ``_lifts`` one orbit step (K >= 4, so
    c1 is g'(a) mod p^2).
    """
    p, num, den, t1 = form.prime, form.num, form.den, form.t1
    mod, slope_mod = p**K, p ** (K - (K + 1) // 2)

    def expand(a: int) -> tuple[int | None, ...]:
        q = _evaluate(den, a)
        if q % p:
            inv = pow(q, -1, mod)
            return _evaluate(num, a) * inv % mod, _evaluate(t1, a) * inv * inv % slope_mod
        if q == 0:
            raise PoleInDomain(f"denominator vanishes at {Fraction(a, p**form.M)}")
        pk = p ** int_valuation(q, p)
        n, rest = divmod(_evaluate(num, a), pk)
        return (None if rest else n * pow(q // pk, -1, mod) % mod,)

    return expand


def subsidiary_edge_data(
    form: RescaledMap, y: int, y_image: int, t: int, radius_exponent: int
) -> SubsidiaryEdgeData:
    """Admission data of the level-t edge from the key a = y / p^M to the key
    b = y_image / p^M, on f's integer form ``form`` on B(0, M).

    The edge is kept when p^t is at most each of: p^(-s); p^l / |f'(a)|;
    |Q(a)| |f'(a)| / |Q'(a)|; p^(-2s) |Q(a)| |f'(a)|^2 (third bound infinite
    when Q'(a) = 0).  s is the least s >= 0 making P(p^s x + a) -
    (p^s y + b) Q(p^s x + a) integral; a monomial of total degree k scales by
    p^(sk).  With o = ``form.offset``, the i-th coefficients of P(x + a) and
    Q(x + a) are p^(M(i - 1) - o) Ph_i and p^(Mi - o) Qh_i for the integer
    Taylor coefficients Ph and Qh of num and den at y.
    """
    p, M, o, num, den = form.prime, form.M, form.offset, form.num, form.den
    d = max(len(num), len(den)) - 1
    # padded so that Ph_1 and Qh_1 exist for constant P and Q
    Ph = _taylor_coefficients(num, y) + [0] * (d + 2 - len(num))
    Qh = _taylor_coefficients(den, y) + [0] * (d + 2 - len(den))
    s = 0
    if M:  # with M = 0 every coefficient is an integer
        # constant term: P(a) - b Q(a) = p^(-M - o) (Ph_0 - y_image Qh_0)
        c = Ph[0] - y_image * Qh[0]
        if c and int_valuation(c, p) < M + o:
            raise ConstantTermNotIntegral(
                "constant term P(a) - b Q(a) has negative valuation at "
                f"a={Fraction(y, p**M)}, b={Fraction(y_image, p**M)}"
            )
        for i in range(d + 1):
            # the x^i y^1 coefficient -Q_a[i], and for i >= 1 the x^i y^0
            # coefficient P_a[i] - b Q_a[i] = p^(M(i - 1) - o) (Ph_i - y_image Qh_i)
            if Qh[i]:
                s = max(s, ceil_div(o - M * i - int_valuation(Qh[i], p), i + 1))
            c = Ph[i] - y_image * Qh[i]
            if i and c:
                s = max(s, ceil_div(o - M * (i - 1) - int_valuation(c, p), i))
    # Q(a) = p^(-o) Qh_0, Q'(a) = p^(M - o) Qh_1 and
    # T1(a) = (P'Q - PQ')(a) = p^(-2o) (Ph_1 Qh_0 - Ph_0 Qh_1)
    vq = int_valuation(Qh[0], p) - o
    vqd = int_valuation(Qh[1], p) + M - o
    vt = int_valuation(Ph[1] * Qh[0] - Ph[0] * Qh[1], p) - 2 * o
    return _edge_data(s, vq, vqd, vt, radius_exponent, t)


def _edge_data(
    s: int, vq: int, vqd: ExtendedInt, vt: ExtendedInt, radius_exponent: int, t: int
) -> SubsidiaryEdgeData:
    """The four bound exponents of a level-t edge from a, and whether the
    edge is kept, from s, v(Q(a)), v(Q'(a)) and v(T1(a)).

    With e = 2 v(Q(a)) - v(T1(a)) (|f'(a)| = p^e): -s, l - e,
    v(Q'(a)) - v(Q(a)) + e and -2s - v(Q(a)) + 2e, where T1(a) = 0 sends the
    last three to -inf and Q'(a) = 0 sends the third to +inf.  Each bound
    falls as s grows, so an upper bound on s that keeps the edge proves it
    kept.
    """
    if vt == INF:
        bounds = (-s, NEG_INF, INF if vqd == INF else NEG_INF, NEG_INF)
    else:
        e = 2 * vq - vt
        third = INF if vqd == INF else vqd - vq + e
        bounds = (-s, radius_exponent - e, third, -2 * s - vq + 2 * e)
    return SubsidiaryEdgeData(s, bounds, t <= min(bounds))


def cycle_decomposition(G: LevelDigraph) -> CycleDecomposition:
    """Cycles and tails of the out-degree-1 functional graph.

    Each vertex is walked once: a walk follows out-edges from the least
    unvisited vertex until it meets a visited one, and a walk that meets its
    own path has closed a new cycle, the path from the meeting vertex on.
    The tails are the vertices on no cycle.  Deterministic: cycles are
    rotated to start at their smallest key and sorted by that key (vertex
    indices follow key order).
    """
    succ = G.succ
    n = len(succ)
    walk = [0] * n  # 1 + the start of the walk that reached a vertex
    cycles = []
    # the iterator reads walk as the walks fill it in
    for mark, seen in enumerate(walk, 1):
        if seen:
            continue
        v = mark - 1
        walk[v] = mark
        u = succ[v]
        if walk[u]:
            # most walks on a level with tails end after one vertex
            if u == v:
                cycles.append((v,))
            continue
        path = [v]
        while not walk[u]:
            walk[u] = mark
            path.append(u)
            u = succ[u]
        if walk[u] == mark:
            # this walk closed a new cycle: its path from u on
            del path[: path.index(u)]
            k = path.index(min(path))
            cycles.append(tuple(path[k:] + path[:k]))
    cycles.sort()
    tails = ()
    if sum(map(len, cycles)) < n:
        is_tail = bytearray(b"\x01") * n
        for cyc in cycles:
            for u in cyc:
                is_tail[u] = 0
        tails = tuple(compress(range(n), is_tail))
    return CycleDecomposition(cycle_indices=tuple(cycles), tail_indices=tails)


class Analysis:
    """Everything attached to f on X, from one classification of f on X.

    ``report`` is computed on construction.  The transport level, the
    intrinsic level and the digraph of each level (with and without
    subsidiary data) are computed on first use and kept, so each level is
    built once however many questions read it.  ``mp`` and ``components``
    read two adjacent levels and no intrinsic level.  ``ergodic`` first walks
    one orbit of a coarse level, and builds no level where cycle lifting
    certifies them all; the levels it scans otherwise are read once and not
    kept.  ``intrinsic_level`` builds the transport level only,
    and walks its balls for the levels below.
    """

    def __init__(
        self, f: RationalMap, X: CompactDomain, config: AnalysisConfig = DEFAULT_CONFIG
    ):
        self.f = f
        self.X = X
        self.config = config
        self.report: ScalingReport = classify(f, X, config)
        self.form = f.rescaled(X.height_exponent())
        self._digraphs: dict[int, LevelDigraph] = {}
        self._subsidiaries: dict[int, LevelDigraph] = {}

    @cached_property
    def transport_level(self) -> int:
        """The coarsest level at which every ball maps into one ball."""
        report = self.report
        if report.transport_level is None:
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
        """The level-t digraph with subsidiary admission data on every edge.

        On Z_p (M = 0) every edge's s is 0, so its datum depends only on
        v(Q(a)), v(Q'(a)) and v(T1(a)) at its key a.  The domain is walked
        from its base level down to t + 1; a ball that ``_settle`` finds
        |Q|, |Q'| and |T1| constant on gives each of its edges one shared
        datum, and the edges of the level-t balls left are computed one by
        one.  The level-u balls are the level-t vertices i < n_u, and the
        vertices of ball i are i + j n_u.  Beyond Z_p, s depends on the
        image key, and every edge is computed on its own.
        """
        if t not in self._subsidiaries:
            G, level = self.digraph(t), self.transport_level
            p, M, y = self.f.prime, self.form.M, G.residues
            n, data = len(y), [None] * len(y)
            u, n_u = self.X.base_level, self.X.count(self.X.base_level)
            balls = range(n_u)
            while M == 0 and u > t:
                split = []
                for i in balls:
                    values = self._settle(y[i], u)
                    if values is None:
                        split.append(i)
                    else:
                        s, vq, vqd, vt, _ = values
                        data[i::n_u] = [_edge_data(s, vq, vqd, vt, level, t)] * (n // n_u)
                balls = [i + k * n_u for k in range(p) for i in split]
                u, n_u = u - 1, n_u * p
            for i, j in enumerate(G.succ):
                if data[i] is None:
                    data[i] = subsidiary_edge_data(self.form, y[i], y[j], t, level)
            self._subsidiaries[t] = replace(G, subsidiary=tuple(data))
        return self._subsidiaries[t]

    @cached_property
    def _taylor(self) -> list[tuple[list[int], list[int]]]:
        """(Qh_i, W_i) for i = 0 .. max(d, 1), as polynomials in y: the i-th
        Taylor coefficients Ph_i(y) and Qh_i(y) of the form's num and den at
        y, and W_i = Ph_i den - num Qh_i, so that W_1 = t1 and
        p^(M(i - 1) - 2o) W_i(y) = P_a[i] Q(a) - P(a) Q_a[i] at a = y / p^M."""
        num, den = self.form.num, self.form.den
        d = max(len(num), len(den), 2) - 1
        return [
            (Qi, _int_add(_int_mul(Pi, den), _int_mul(num, Qi), -1))
            for Pi, Qi in zip(_taylor_polynomials(num, d), _taylor_polynomials(den, d))
        ]

    def _settle(
        self, y: int, t: int
    ) -> tuple[int, int, ExtendedInt, ExtendedInt, ExtendedInt] | None:
        """(s, v(Q(a)), v(Q'(a)), v(T1(a)), exact_to) on a level-t ball
        where |Q|, |Q'| and |T1| are constant, else None.  s bounds the
        rescaling exponent of each edge that the bounds under s keep, and
        no edge's exponent is below s at the levels u <= exact_to.  Above
        the transport level, only a ball on which every valuation entering s
        is constant settles: it then stands for its transport-level balls.
        On Z_p (M = 0), s = 0 and the three valuations settle a ball.  They
        are read off den, den' = Qh_1 and t1 = W_1, so ``_taylor`` is built
        only beyond Z_p, where the loop over its terms runs."""
        p, level, form = self.f.prime, self.transport_level, self.form
        M, o = form.M, form.offset
        k = M - t
        (vq, cq), (vqd, cqd), (vt, ct) = (
            _ball_probe(F, p, y, k)[2:] for F in (form.den, _int_derivative(form.den), form.t1)
        )
        if not (cq and cqd and ct):
            return None
        # with M = 0 every coefficient is an integer, s = 0
        s, constant, exact_to = 0, True, INF if M == 0 else vq - o
        for i, (Qi, Wi) in enumerate(self._taylor if M else ()):
            # v(Q_a[i]) >= q and v(W_i(a)) - v(Q(a)) >= w on the ball
            q, q_exact = _ball_probe(Qi, p, y, k)[2:]
            w, w_exact = _ball_probe(Wi, p, y, k)[2:]
            q, w = q + M * i - o, w - vq + M * (i - 1) - o
            if q != INF:
                s = max(s, ceil_div(-q, i + 1))
            if i and w != INF:
                s = max(s, ceil_div(-w, i))
                if q != INF:
                    # v(P_a[i] - b Q_a[i]) = w at the levels u where
                    # w < v(Q_a[i]) - u
                    exact_to = min(exact_to, q - w - 1)
            constant = constant and q_exact and w_exact
        if not constant:
            if t > level:
                return None
            exact_to = NEG_INF
        return s, vq - o, vqd + M - o, vt - 2 * o, exact_to

    @cached_property
    def intrinsic_level(self) -> int:
        """Largest level t where the subsidiary digraph keeps every edge, with
        a guard margin of coinciding levels below it.

        The candidates run from the transport level l down to l -
        ``descent_cap``; the first whose level and ``config.intrinsic_margin``
        levels below it keep every edge is returned.  Coincidence below a
        candidate is verified, not assumed.  Keys nest across levels: the
        children of vertex i of n are the vertices i + kn, and k = 0 keeps
        the key.  So a level keeps every edge exactly when each key of that
        level, the coarser levels' keys included, passes there.  Each level
        is judged from per-ball bounds, one level at a time from l, and the
        search stops at the level that decides it, as a candidate by
        candidate search building ``subsidiary(t)`` would: the same level
        raises the same error, DecompositionTooLarge included.

        The walk starts from X's balls at its base level.  The level-u keys
        of a level-t ball (u <= t) are its centre's residue plus multiples
        of p^(M - t), and its centre is its only key at the coarser levels.
        Each ball is probed at its centre.  Where |Q|, |Q'| and |T1| are
        constant on the ball, v(Q(a)), v(Q'(a)) and v(T1(a)) are the same at
        each of its keys at every level, and the ball is settled.  Otherwise
        the ball is split, and at and below l its centre's edge is computed.

        On Z_p (M = 0), s = 0, so one set of bounds decides the settled
        ball's edges at every level.  Beyond Z_p, s depends on the image key
        b, and |b - f(a)| <= p^u at level u.  With W_i = P_a[i] Q(a) -
        P(a) Q_a[i], v(P_a[i] - b Q_a[i]) >= min(v(W_i(a)) - v(Q(a)),
        v(Q_a[i]) - u).  The second term never decides whether an edge is
        kept.  Its share of s, (u - v(Q_a[i])) / i, is at most Q_a[i]'s own
        share -v(Q_a[i]) / (i + 1) exactly when v(Q_a[i]) >= u(i + 1), and
        otherwise Q_a[i]'s own share exceeds -u, so that the first bound, -s,
        rejects the edge.  So lower bounds of v(Q_a[i]) and v(W_i) - v(Q)
        over the ball give one s for the ball, and where the bounds under
        that s keep level u, every edge of the ball is kept at u and at every
        finer level (each bound falls as s grows).  Such an edge has no
        ConstantTermNotIntegral: Q_a[0] = Q(a) makes s >= -v(Q(a)), so
        u <= -s <= v(Q(a)) and v(P(a) - b Q(a)) >= v(Q(a)) - u >= 0.

        Where the bounds do not keep the ball at u, it fails the level
        outright if no edge's s is below the ball's: the valuations are
        constant on the ball, each finite W_i term lies strictly below its
        Q_a[i] term (so it is the valuation), and u <= v(Q(a)) rules out
        ConstantTermNotIntegral.  Otherwise the ball's edges at u are
        computed one by one, each from the image that ``_expansion`` gives
        at its key, as the level digraph reads it.  All the edges computed
        at a level are computed in vertex order before the level is judged,
        so the first error is the one ``subsidiary`` meets first.
        """
        level = self.transport_level
        if not self.report.derivative_root_free:
            raise DerivativeRootInDomain(
                "intrinsic level requires a root-free derivative on the domain"
            )
        f, X, config = self.f, self.X, self.config
        self.digraph(level)  # raises what subsidiary(level) raises first
        p, M = f.prime, self.form.M
        margin = config.intrinsic_margin
        floor = level - config.descent_cap
        run = 0  # levels keeping every edge just above and at t
        # settled balls not yet kept, as (level, centre, settle's values)
        t, settled = X.base_level, []
        centres = decompose_residues(X, t, config)[1]
        while True:
            mod = p ** (M - t)
            split = []
            for y in centres:
                values = self._settle(y, t)
                if values is None:
                    split.append(y)
                else:
                    settled.append((t, y, values))
            if t <= level:
                # the keys whose edges are computed one by one, and whether
                # the settled balls keep every other edge
                keys, kept, still_open = list(split), True, []
                for ball in settled:
                    u, y, (s, vq, vqd, vt, exact_to) = ball
                    if _edge_data(s, vq, vqd, vt, level, t).passes:
                        continue  # kept at t and at every finer level
                    still_open.append(ball)
                    if t <= exact_to:
                        kept = False
                    else:
                        keys.extend(range(y, p ** (M - t), p ** (M - u)))
                settled = still_open
                expand = _expansion(self.form, M - t)
                data = [
                    subsidiary_edge_data(self.form, y, expand(y)[0], t, level)
                    for y in sorted(keys)
                ]
                if kept and all(e.passes for e in data):
                    run += 1
                    if run > margin:
                        return t + margin
                elif t <= floor:
                    # every candidate from the top of the run down to the
                    # floor meets this level
                    raise DepthCapExceeded(
                        f"no level down to {floor} has matching digraph and subsidiary digraph",
                        level=floor,
                    )
                else:
                    run = 0
            t -= 1
            config.check_ball_budget(X.count(t), "decomposition", t)
            centres = [y + k * mod for y in split for k in range(p)]

    def mp(self) -> MPVerdict:
        """Measure preservation verdict for a locally 1-Lipschitz map from
        the transport level l and level l - 1: the least ball of in-degree
        >= 2 at the first that has one, MeasurePreserving, or Undecided.

        Root-free derivative: p^l is the uniform scaling radius, so f scales
        each level-l ball B by exactly |f'| = p^e, e <= 0.  If e < 0, B's p
        children map into one ball of radius p^(l + e) <= p^(l - 1).  If
        e = 0, each ball inside B maps onto a ball, child onto child; so if
        level l is a permutation and e = 0 on every B, every finer level is
        one.  So when neither level fails, f permutes every level: the cycle
        criterion, in the compact-open form of the result that a 1-Lipschitz
        map is measure preserving exactly when it is an isometry (Anashin &
        Khrennikov, Applied Algebraic Dynamics, 2009).  A LocallyIsometric
        map has e = 0 on every B, so level l alone decides it.

        Derivative roots: a pass at both levels is Undecided, and so is a
        level over ``ball_cap`` (Undecided down to the level above it).  On a
        domain inside Z_p, B's children collide at level l - 1 unless f is
        an isometry on B, so no level below l - 1 fails first.  There P and Q
        are integral, T(x, y) = (P(x) Q(y) - P(y) Q(x)) / (x - y) is in
        Z[x, y] and f(x) - f(y) = (x - y) T(x, y) / (Q(x) Q(y)).  B lies in
        a ball that ``classify`` settled, so |Q| = p^-q on B with 2q <= -l.
        For x, y in B, a its key and k = T1'(a) / 2 = (P''Q - PQ'')(a) / 2,
        T(x, y) = T1(a) + k (x - a + y - a) mod p^(-2l), v(T1(a)) >= 2q as
        |f'| <= 1, and x and y collide one level down iff v(T(x, y)) > 2q.
        If v(k) - l > 2q, f is an isometry on B (v(T1(a)) = 2q) or all of B's
        children collide.  Otherwise k is a unit and 2q = -l: for odd p, two
        children's digits make x - a + y - a cancel T1(a) mod p^(2q + 1); for
        p = 2 this case is void, as Q(a) is even and f(a) in Z_2 makes P(a)
        even, so k = P(a) Q''(a) / 2 is even mod 2.  Beyond Z_p, T is
        integral only in y = p^M x, where the certificate need not give
        2q <= -l, and the proof does not close; no map whose first collision
        lies below l - 1 is known.
        """
        level, report = self.transport_level, self.report
        levels = (level,) if report.classification == LOCALLY_ISOMETRIC else (level, level - 1)
        for t in levels:
            try:
                verdict = self._cycle_failure(t)
            except DecompositionTooLarge:
                if report.derivative_root_free:
                    raise
                return MPVerdict(kind=UNDECIDED, scanned_to=t + 1)
            if verdict is not None:
                return verdict
        if report.derivative_root_free:
            return MPVerdict(kind=MEASURE_PRESERVING)
        return MPVerdict(kind=UNDECIDED, scanned_to=level - 1)

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
        )

    def ergodic(self, depth: int) -> ErgodicVerdict:
        """Single-cycle scan down to ``depth``.

        NotErgodic is definitive.  A pass reports only the scanned depth,
        also when cycle lifting has certified every level.  The same verdict
        answers minimality.  With t0 = min(level, M - 2), one orbit of the
        level-t0 balls is tried first when a level below t0 is scanned and
        level t0 - 1 fits in ``ball_cap``; where ``_lifts`` certifies every
        level, no digraph is built.  Otherwise each level's digraph decides
        it, from the transport level down; a level this scan builds is read
        once and not kept.
        """
        level = self.transport_level
        if depth > level:
            raise LevelTooCoarse(f"depth {depth} is above the starting level {level}")
        t0 = min(level, self.form.M - 2)
        if t0 > depth and self.X.count(t0 - 1) <= self.config.ball_cap and self._lifts(t0):
            return ErgodicVerdict(kind=SINGLE_CYCLE_TO_DEPTH, depth=depth)
        for t in range(level, depth - 1, -1):
            G = self._digraphs.get(t) or build_digraph(self.f, self.X, t, self.config)
            dec = G.cycles
            if not dec.is_single_cycle:
                return ErgodicVerdict(
                    kind=NOT_ERGODIC, level=t, cycle_count=len(dec.cycle_indices)
                )
        return ErgodicVerdict(kind=SINGLE_CYCLE_TO_DEPTH, depth=depth)

    def _lifts(self, t0: int) -> bool:
        """Whether cycle lifting certifies that every level is one cycle,
        from the orbit z_0 = y0, ..., z_n0 of the smallest rescaled key y0
        under the rescaled map g, with n0 = X.count(t0) and K0 = M - t0 >= 2.

        Each step reads (g(z), g'(z)) off ``_expansion`` at z, mod p^K with
        K = max(K0 + 1, 4), so g'(z) is known mod p^2; it returns False at a
        key where den is not a unit, where ``_expansion`` gives g(z) alone.
        No step meets a pole: ``classify`` refuses a domain that holds a
        root of Q before an Analysis exists.  Level t0 is one cycle exactly
        when the orbit stays in X and first returns to y0's level-t0 ball
        at step n0.
        At and below the transport level, the parent of a ball's image is the
        successor of the ball's parent, so each coarser level down to t0 is a
        quotient of level t0, and a quotient of one cycle is one cycle: a
        coarser level that is not one cycle makes level t0 fail too.

        Let a = prod_{j < n0} g'(z_j) and b = (z_n0 - y0) / p^K0 mod p.
        (1) Where den(z_j) is a unit, g is an integral power series on
        z_j + p Z_p (the proof is in ``_expansion``), so phi(s) =
        (g^n0(y0 + p^K0 s) - y0) / p^K0 = b + a s + sum_{i >= 2} d_i s^i
        with v(d_i) >= (i - 1) K0.  (2) The level t0 - k balls form one cycle
        exactly when phi cycles Z / p^k.  (3) As K0 >= 2, the return map of
        each level-k cycle is affine mod p^(k + 2), and phi' = a mod p^K0.
        (4) So b_(k+1) = b_k (sum_{j < p} a_k^j) / p mod p: b_k for odd p
        with a = 1 mod p, and b_k (1 + a_k) / 2 for p = 2 with a_k = a^(2^k)
        = 1 mod 4.  Induction on k: b != 0 mod p and a = 1 mod p (mod 4 for
        p = 2) certify every level.  Fan & Liao, On minimal decomposition of
        p-adic polynomial dynamical systems, Adv. Math. 2011.
        """
        X, p = self.X, self.f.prime
        M, ys = decompose_residues(X, X.base_level, self.config)
        # decompose_residues' layout: a rescaled key lies in X exactly when
        # its residue mod step is one of the rescaled base keys
        step, bases, y0 = p ** (M - X.base_level), set(ys), ys[0]
        mod, n0 = p ** (M - t0), X.count(t0)
        expand = _expansion(self.form, max(M - t0 + 1, 4))
        a, z = 1, y0
        for i in range(1, n0 + 1):
            e = expand(z)
            if len(e) == 1:
                return False
            a, z = a * e[1] % (p * p), e[0]
            if z % step not in bases or (z % mod == y0) != (i == n0):
                return False
        b = (z - y0) // mod % p
        return b != 0 and a % (4 if p == 2 else p) == 1

    def components(self, t: int) -> list[ComponentSelection]:
        """Per-cycle measure preservation verdicts at a level t <= l, the
        transport level, for a map whose derivative has no root.  A union of
        cycles is measure preserving exactly when each of its cycles is.

        For a local isometry every cycle is.  Otherwise a cycle Y is exactly
        when level t - 1 permutes the children of Y's balls: f scales each
        ball B of Y by exactly |f'| = p^e, as in ``mp``.  If e < 0 on some B,
        B's children map into one ball of level t - 1, and the check reports
        it; if e = 0 on every B, f maps each B onto its successor, child onto
        child, so every finer level of Y is a permutation.
        """
        level = self.transport_level
        if not self.report.derivative_root_free:
            raise DerivativeRootInDomain("components need a root-free derivative on the domain")
        self.digraph(level)  # an escape is reported at level l, as mp reports it
        G = self.digraph(t)
        V = G.vertices
        cycles = G.cycles.cycle_indices
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
