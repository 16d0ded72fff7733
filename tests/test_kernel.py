"""The integer level-digraph kernel against per-vertex exact evaluation.

The oracle evaluates f at every ball's key in exact fractions and takes the
canonical key of the image, as the digraph was first defined; the kernel
must give the same vertices, the same edges and the same errors.  The
one image kernel, ``_expansion``, is checked against per-key Horner
evaluation at every residue: its first-order expansion where den is a
unit, and its image of each key, or its pole, elsewhere.  The ergodic
scan, cycle lifting included, is checked against the cycle decomposition
of every level digraph.
"""

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, event, given, settings
from hypothesis import strategies as st
from test_domains import level_balls
from test_polynomials import pmul

from padicdyn import (
    Analysis,
    AnalysisConfig,
    Ball,
    CompactDomain,
    RationalMap,
    canonical_key,
    classify,
    cli,
    normalize_map,
    parse_map,
)
from padicdyn import digraph
from padicdyn.digraph import (
    NOT_ERGODIC,
    SINGLE_CYCLE_TO_DEPTH,
    ErgodicVerdict,
    _expansion,
    _successors,
    build_digraph,
    cycle_decomposition,
)
from padicdyn.domains import decompose_residues, residue_ball
from padicdyn.errors import (
    CertificateFailed,
    DecompositionTooLarge,
    DepthCapExceeded,
    LevelTooCoarse,
    NotForwardInvariant,
    PadicDynError,
    PoleInDomain,
)
from padicdyn.padics import int_valuation

PRIMES = st.sampled_from([2, 3, 5, 7])
MAX_VERTICES = 800


def edge_map(G):
    """G's edges as a dict from vertex Ball to successor Ball."""
    V = G.vertices
    return {V[i]: V[j] for i, j in enumerate(G.succ)}


def children(b):
    """The level-(t - 1) balls inside the level-t ball b, by digit."""
    step = Fraction(b.prime) ** -b.level
    return [Ball(b.level - 1, b.key + d * step, b.prime) for d in range(b.prime)]


def cycle_balls(G, dec):
    """The cycles of G's decomposition ``dec`` as tuples of vertex Balls."""
    V = G.vertices
    return [tuple(V[i] for i in c) for c in dec.cycle_indices]


def oracle(f, X, t):
    """(keys, edges, escaping) by exact evaluation; raises PoleInDomain at
    the first key where the denominator vanishes."""
    balls = level_balls(X, t)
    edges, escaping = {}, []
    for b in balls:
        image = f.eval(b.key)
        if any(c.contains(image) for c in X.balls):
            edges[b.key] = canonical_key(image, t, f.prime)
        else:
            escaping.append((b, image))
    return [b.key for b in balls], edges, escaping


def kernel(f, X, t):
    M, residues = decompose_residues(X, t)
    succ = _successors(f, X, t, M, residues)
    keys = [Fraction(y, f.prime**M) for y in residues]
    return keys, {keys[i]: keys[j] for i, j in enumerate(succ)}


@st.composite
def domains(draw, p, kinds=("zp", "ball", "punctured", "beyond")):
    """Z_p, a sub-ball, Z_p with a ball removed, or a ball beyond Z_p
    (B(0,1), B(0,2), B(c/p, 0)), so the rescaling exponent M reaches 2."""
    kind = draw(st.sampled_from(kinds))
    if kind == "zp":
        return CompactDomain.zp(p)
    level = draw(st.integers(-2, -1))
    center = draw(st.integers(0, p**2 - 1))
    if kind == "ball":
        return CompactDomain.ball(center, level, p)
    if kind == "punctured":
        return CompactDomain.zp(p).difference(CompactDomain.ball(center, level, p))
    radius = draw(st.integers(0, 2))
    if radius == 0:
        return CompactDomain.ball(Fraction(draw(st.integers(1, p - 1)), p), 0, p)
    return CompactDomain.ball(0, radius, p)


@st.composite
def instances(draw):
    p = draw(PRIMES)
    pc = draw(st.lists(st.integers(-30, 30), min_size=1, max_size=5))
    qc = draw(st.lists(st.integers(-30, 30), min_size=1, max_size=4))
    assume(any(qc))
    f = normalize_map(pc, qc, p)
    X = draw(domains(p))
    depth = draw(st.integers(0, 3))
    t = X.base_level - depth
    assume(X.count(t) <= MAX_VERTICES)
    return f, X, t


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(instances())
def test_kernel_matches_exact_evaluation(instance):
    f, X, t = instance
    try:
        keys, edges, escaping = oracle(f, X, t)
    except PoleInDomain as exc:
        event("pole")
        with pytest.raises(PoleInDomain) as info:
            kernel(f, X, t)
        assert str(info.value) == str(exc)
        return
    if escaping:
        event("escape")
        with pytest.raises(NotForwardInvariant) as info:
            kernel(f, X, t)
        first = escaping[0]
        assert str(info.value) == (
            f"{len(escaping)} ball(s) leave the domain, first: {first[0]} -> {first[1]}"
        )
        assert (info.value.count, info.value.first) == (len(escaping), first)
        return
    event(f"digraph, M = {X.height_exponent()}")
    assert kernel(f, X, t) == (keys, edges)


@st.composite
def one_lipschitz_instances(draw):
    """Maps that are 1-Lipschitz on B(0, M) and keep it invariant:
    P(x) = c0 / p^M + sum_i c_i p^(M(i-1)) x^i over Q = 1 + k p^(M+1) x,
    on B(0, M) itself or, for M = 0, on a ball or punctured Z_p.

    Beyond Z_p only M = 1 with p <= 3 and degree <= 2: there the certified
    radius is loose, and classify alone takes seconds for larger ones."""
    M = draw(st.integers(0, 1))
    p = draw(PRIMES if M == 0 else st.sampled_from([2, 3]))
    pc = draw(st.lists(st.integers(-20, 20), min_size=2, max_size=5 if M == 0 else 3))
    P = [Fraction(pc[0], p**M)] + [c * p ** (M * (i - 1)) for i, c in enumerate(pc) if i]
    Q = [1, draw(st.integers(-5, 5)) * p ** (M + 1)]
    f = normalize_map(P, Q, p)
    assume(f.m >= 1)
    X = CompactDomain.ball(0, M, p) if M else draw(domains(p, ("zp", "ball", "punctured")))
    return f, X


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(one_lipschitz_instances())
def test_edges_commute_with_parents_below_the_transport_level(instance):
    f, X = instance
    try:
        A = Analysis(f, X)
        top = min(A.transport_level, X.base_level)
        G = A.digraph(top)
    except (NotForwardInvariant, DepthCapExceeded):
        assume(False)
    p, M = f.prime, X.height_exponent()
    levels = [top]
    while len(G.succ) * p ** len(levels) <= MAX_VERTICES and len(levels) < 4:
        levels.append(top - len(levels))
    graphs = [A.digraph(t) for t in levels]
    for coarse, fine in zip(graphs, graphs[1:]):
        # parent of a rescaled key at level t - 1: its residue mod p^(M - t)
        mod = p ** (M - coarse.level)
        where = {y: i for i, y in enumerate(coarse.residues)}
        for i, j in enumerate(fine.succ):
            parent = where[fine.residues[i] % mod]
            assert coarse.residues[coarse.succ[parent]] == fine.residues[j] % mod
    # the same statement on Balls, for the coarsest pair
    if len(graphs) > 1:
        coarse, fine = edge_map(graphs[0]), edge_map(graphs[1])
        for v in fine:
            assert fine[v].parent() == coarse[v.parent()]


def test_a_pole_wins_over_earlier_escapes():
    # 1/(3x - 3) on Z_3 at level -1: key 0 escapes (image -1/3), key 1 is
    # a pole; as with per-key evaluation, the pole is raised
    f = normalize_map([1], [-3, 3], 3)
    assert not Ball.containing(0, 0, 3).contains(f.eval(0))
    with pytest.raises(PoleInDomain, match="^denominator vanishes at 1$"):
        kernel(f, CompactDomain.zp(3), -1)
    with pytest.raises(PoleInDomain, match="^denominator vanishes at 1$"):
        oracle(f, CompactDomain.zp(3), -1)


def test_escaping_balls_carry_their_images():
    # x/3 + 1 on B(1,-1): the only ball escapes, with image 4/3
    g = normalize_map([3, 1], [3], 3)
    with pytest.raises(NotForwardInvariant) as info:
        kernel(g, CompactDomain.ball(1, -1, 3), -1)
    assert info.value.count == 1
    assert info.value.first == (Ball(-1, Fraction(1), 3), Fraction(4, 3))


def test_an_escaping_level_evaluates_f_once(monkeypatch, capsys):
    # 62,500 level-(-7) balls leave the domain; only the first one's image
    # is printed, so only it is evaluated in fractions
    calls = []
    real = RationalMap.eval
    monkeypatch.setattr(RationalMap, "eval", lambda f, x: calls.append(x) or real(f, x))
    argv = ["-p", "5", "--map", "(9/25+5x)/(5)", "--domain", "Zp-B(3,-1)", "mp"]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == (
        "error: 62500 ball(s) leave the domain, first: B(0, -7) -> 9/125\n"
    )
    assert calls == [0]


def per_key_image(f, M, K):
    """The rescaled image p^M f(y / p^M) mod p^K by Horner's scheme at each
    key, with one modular inverse per key: the kernel before the
    first-order expansion."""
    p, mod, scale = f.prime, f.prime**K, f.prime**M
    d = max(f.m, f.n)
    num = [scale * c * p ** (M * (d - i)) for i, c in enumerate(f.P)]
    den = [c * p ** (M * (d - i)) for i, c in enumerate(f.Q)]

    def image(y):
        n = sum(c * y**i for i, c in enumerate(num))
        q = sum(c * y**i for i, c in enumerate(den))
        if q % p:
            return n * pow(q, -1, mod) % mod
        if q == 0:
            f.eval(Fraction(y, scale))
            raise CertificateFailed(
                f"the rescaled denominator vanishes at {y}, but Q has no root at "
                f"{Fraction(y, scale)}"
            )
        k = 0
        while q % p == 0:
            q //= p
            k += 1
        n, rest = divmod(n, p**k)
        if rest:
            return None
        return n * pow(q, -1, mod) % mod

    return image


def per_key_successors(f, X, t, M, residues):
    """``_successors`` on ``per_key_image``."""
    image = per_key_image(f, M, M - t)
    index = {y: i for i, y in enumerate(residues)}
    succ = [index.get(image(y)) for y in residues]
    if None in succ:
        b = residue_ball(residues[succ.index(None)], t, M, f.prime)
        first, count = (b, f.eval(b.key)), succ.count(None)
        raise NotForwardInvariant(
            f"{count} ball(s) leave the domain, first: {first[0]} -> {first[1]}",
            count=count,
            first=first,
        )
    return succ


def _outcome(fn, *args):
    """The value, or the exception's type and message."""
    try:
        return fn(*args)
    except PadicDynError as exc:
        return type(exc), str(exc)


# the largest K with p^K <= 1024 residues to check one by one
DEEPEST_K = {2: 10, 3: 6, 5: 4, 7: 3}


@st.composite
def expansion_cases(draw):
    """(f, M, K): f = P / Q with coefficients of valuation -1 to 1, whose Q
    is a multiple of (p^M x - r) for a drawn r about half the time, so
    that Q^ has a root at the rescaled key r (a pole in B(0, M), unless P
    cancels it) and is a non-unit at the ancestors congruent to r mod p."""
    p = draw(PRIMES)
    M = draw(st.integers(0, 2))
    K = draw(st.integers(1, DEEPEST_K[p]))
    coeff = st.builds(lambda n, k: n * Fraction(p) ** k, st.integers(-30, 30), st.integers(-1, 1))
    P = draw(st.lists(coeff, min_size=1, max_size=4))
    Q = draw(st.lists(coeff, min_size=1, max_size=3))
    if not any(Q):
        Q[-1] = 1
    if draw(st.booleans()):
        Q = pmul(Q, [-draw(st.integers(0, p**K - 1)), p**M])
    return normalize_map(P, Q, p), M, K


def test_expansion_matches_per_key_evaluation():
    seen = set()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(expansion_cases())
    def check(case):
        f, M, K = case
        p, K1 = f.prime, (K + 1) // 2
        d = max(f.m, f.n)
        num = [p**M * c * p ** (M * (d - i)) for i, c in enumerate(f.P)]
        den = [c * p ** (M * (d - i)) for i, c in enumerate(f.Q)]
        # the expansion reads Q^ over the largest power of p dividing
        # p^M P^ and Q^
        e = min(int_valuation(c, p) for c in num + den if c)
        form, old = f.rescaled(M), per_key_image(f, M, K)
        expand = _expansion(form, K)
        for y in range(p**K):
            want = _outcome(old, y)
            got = _outcome(expand, y)
            # y's ancestor a; den is a unit at y exactly when it is at a
            a = y % p**K1
            if sum(c * a**i for i, c in enumerate(den)) // p**e % p:
                # the expansion at a, read at y
                c0, c1 = expand(a)
                assert 0 <= c0 < p**K and 0 <= c1 < p ** (K - K1)
                assert (c0 + c1 * (y - a)) % p**K == want
                assert len(got) == 2 and got[0] == want
                seen.add("expansion, K1 = K" if K1 == K else "expansion")
                if M and f.n == 0:
                    seen.add("expansion, constant denominator, M >= 1")
            else:
                # y's image alone: (c0,), (None,) or the pole's error
                assert got == (want if isinstance(want, tuple) else (want,))
                seen.add("per key, Q^(a) not a unit")
            seen.add(want[0] if isinstance(want, tuple) else "image" if want is not None
                     else "not integral")
        # the level of B(0, M) whose keys are the residues mod p^K
        X = CompactDomain.ball(0, M, p) if M else CompactDomain.zp(p)
        residues = decompose_residues(X, M - K)[1]
        want = _outcome(per_key_successors, f, X, M - K, M, residues)
        assert _outcome(_successors, f, X, M - K, M, residues) == want
        seen.add(("successors", want[0] if isinstance(want, tuple) else list))

    check()
    assert {"expansion", "expansion, constant denominator, M >= 1", "expansion, K1 = K",
            "per key, Q^(a) not a unit", "image", "not integral", PoleInDomain} <= seen
    assert {("successors", PoleInDomain), ("successors", NotForwardInvariant),
            ("successors", list)} <= seen


@st.composite
def successor_cases(draw):
    """(f, X, t) on a sub-ball, punctured Z_p or a ball beyond Z_p, at a
    level from X's base level down to at most 1024 balls, or on Z_p with a
    ball of level -3 or -4 removed, one or two levels below its base level.
    A third of the maps keep X invariant; the others are drawn as in
    ``expansion_cases``, with Q a multiple of (p^M x - r) for a drawn key r
    of X about half the time."""
    kind = draw(st.sampled_from(["invariant", "drawn", "deep hole"]))
    if kind == "invariant":
        f, X = draw(st.one_of(one_lipschitz_instances(), shift_instances(), unit_instances()))
        p = f.prime
    elif kind == "drawn":
        p = draw(PRIMES)
        X = draw(domains(p, ("ball", "punctured", "beyond")))
    else:
        p = draw(st.sampled_from([2, 3]))
        hole = CompactDomain.ball(draw(st.integers(0, p**4 - 1)), draw(st.integers(-4, -3)), p)
        X = CompactDomain.zp(p).difference(hole)
    M = X.height_exponent()
    if kind == "deep hole":
        # the step's classes are coarser than the keys mod p^ceil(K/2)
        t = X.base_level - draw(st.integers(1, 2))
    else:
        deepest = X.base_level
        while X.count(deepest - 1) <= 1024:
            deepest -= 1
        t = draw(st.integers(deepest, X.base_level))
    if kind == "invariant":
        return f, X, t
    coeff = st.builds(lambda n, k: n * Fraction(p) ** k, st.integers(-30, 30), st.integers(-1, 1))
    P = draw(st.lists(coeff, min_size=1, max_size=4))
    Q = draw(st.lists(coeff, min_size=1, max_size=3))
    if not any(Q):
        Q[-1] = 1
    if draw(st.booleans()):
        r = draw(st.sampled_from(decompose_residues(X, t)[1]))
        Q = pmul(Q, [-r, p**M])
    return normalize_map(P, Q, p), X, t


def test_successors_match_per_key_evaluation_beyond_the_full_ball():
    # layouts whose domain step p^(M - base level) is above 1: near the base
    # level the ancestors are the step's classes, not the keys mod p^ceil(K/2)
    seen = set()

    @settings(max_examples=400, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
    @given(successor_cases())
    def check(case):
        f, X, t = case
        p, (M, residues) = f.prime, decompose_residues(X, t)
        K, coarsest = M - t, M - X.base_level
        path = ("K1 = K" if max((K + 1) // 2, coarsest) == K
                else "K1 from the step" if coarsest > (K + 1) // 2 else "K1 = ceil(K/2)")
        want = _outcome(per_key_successors, f, X, t, M, residues)
        assert _outcome(_successors, f, X, t, M, residues) == want
        seen.add((path, want[0] if isinstance(want, tuple) else list))
        event(f"{path}, M = {M}")

    check()
    assert {(path, outcome) for path in ("K1 from the step", "K1 = ceil(K/2)")
            for outcome in (PoleInDomain, NotForwardInvariant, list)} <= seen, seen
    assert {("K1 = K", NotForwardInvariant), ("K1 = K", list)} <= seen, seen


def test_poles_are_met_in_vertex_order():
    # 1/((x-1)(x-9)) on Z_3 at level -4: Q^ is a non-unit at the ancestors
    # 0 and 1 mod 9, and vanishes at the keys 1 and 9; key 1 comes first in
    # vertex order, key 9 first among ancestor 0's descendants
    f = parse_map("1/((x-1)(x-9))", 3)
    M, residues = decompose_residues(CompactDomain.zp(3), -4)
    want = (PoleInDomain, "denominator vanishes at 1")
    assert _outcome(per_key_successors, f, CompactDomain.zp(3), -4, M, residues) == want
    assert _outcome(_successors, f, CompactDomain.zp(3), -4, M, residues) == want


@st.composite
def shift_instances(draw):
    """x + p^-L (u + p h(p^M x)) / (1 + k p^(M + 1) x) with a unit u on a
    ball B(c, L): Z_p, a sub-ball, or B(0, 1) with M = 1.  Each point stays
    in its level-L ball, so scans pass the first levels and fail at varying
    depths; B(0, 1) only for p <= 3 and deg h <= 1, to keep classify fast."""
    L = draw(st.integers(-2, 1))
    M = max(L, 0)
    p = draw(PRIMES if M == 0 else st.sampled_from([2, 3]))
    c = 0 if M else draw(st.integers(0, p**2 - 1))
    u = draw(st.integers(1, p - 1)) + p * draw(st.integers(-3, 3))
    h = draw(st.lists(st.integers(-3, 3), max_size=3 if M == 0 else 2))
    k = draw(st.integers(-2, 2)) * p ** (M + 1)
    shift = Fraction(p) ** -L
    # P = x Q + p^-L (u + p h(p^M x)) over Q = 1 + k x
    P = [shift * u, Fraction(1), Fraction(k)]
    for i, a in enumerate(h):
        P[i] += shift * p * a * p ** (M * i)
    return normalize_map(P, [1, k], p), CompactDomain.ball(c, L, p)


@st.composite
def unit_instances(draw):
    """x (a + p h(x)) / (1 + p k x) on the units Z_p - B(0, -1), p odd:
    p - 1 balls, permuted as one cycle when a is a primitive root mod p;
    with h = k = 0 every level is one cycle when a is a primitive root
    mod p^2."""
    p = draw(st.sampled_from([3, 5, 7]))
    a = draw(st.integers(1, p * p - 1).filter(lambda a: a % p))
    h = draw(st.lists(st.integers(-3, 3), max_size=2))
    P = [0, a + p * (h[0] if h else 0)] + [p * c for c in h[1:]]
    Q = [1, p * draw(st.integers(-2, 2))]
    X = CompactDomain.zp(p).difference(CompactDomain.ball(0, -1, p))
    return normalize_map(P, Q, p), X


def per_level_ergodic(A, depth):
    """The single-cycle scan as one cycle decomposition per level digraph,
    each built afresh."""
    level = A.transport_level
    if depth > level:
        raise LevelTooCoarse(f"depth {depth} is above the starting level {level}")
    for t in range(level, depth - 1, -1):
        dec = cycle_decomposition(build_digraph(A.f, A.X, t, A.config))
        if not dec.is_single_cycle:
            return ErgodicVerdict(kind=NOT_ERGODIC, level=t, cycle_count=len(dec.cycle_indices))
    return ErgodicVerdict(kind=SINGLE_CYCLE_TO_DEPTH, depth=depth)


def outcome(scan, A, depth):
    """The verdict, or the exception's type and message."""
    try:
        return scan(A, depth)
    except PadicDynError as exc:
        return type(exc), str(exc)


def counted_expansions(calls):
    """``_expansion`` whose evaluations each add 1 to calls[0]."""

    def expansion(form, K):
        expand = _expansion(form, K)

        def counted(a):
            calls[0] += 1
            return expand(a)

        return counted

    return expansion


def counted_builds(builds):
    """``build_digraph`` that adds 1 to builds[0] on each call."""

    def build(*args):
        builds[0] += 1
        return build_digraph(*args)

    return build


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(st.one_of(instances().map(lambda i: i[:2]), one_lipschitz_instances(),
                 shift_instances(), unit_instances()))
def test_transport_level_is_at_or_below_the_base_level(instance):
    # both classify routes settle at or below the domain's base level, so
    # the single-cycle scan's coarse orbit can count the balls of each level
    # from the transport level down
    f, X = instance
    try:
        report = classify(f, X, AnalysisConfig(ball_cap=10_000))
    except PadicDynError as exc:
        event(type(exc).__name__)
        return
    event("transport level" if report.transport_level is not None else "not 1-Lipschitz")
    if report.transport_level is not None:
        assert report.transport_level <= X.base_level


def test_ergodic_scan_matches_per_level_cycle_decompositions():
    seen = set()

    @settings(max_examples=600, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
    @given(st.one_of(instances().map(lambda i: i[:2]), one_lipschitz_instances(),
                     shift_instances(), unit_instances()),
           st.data())
    def check(instance, data):
        f, X = instance
        p = f.prime
        # a cap of a few levels' balls stops some scans with DecompositionTooLarge
        k = data.draw(st.none() | st.integers(0, 5), label="cap levels")
        cap = None if k is None else X.count(X.base_level - k) + data.draw(st.integers(0, p - 1))
        try:
            A = Analysis(f, X, AnalysisConfig() if cap is None else AnalysisConfig(ball_cap=cap))
        except PadicDynError:
            assume(False)
        # from the transport level down to the deepest level of at most
        # MAX_VERTICES balls, and now and then one level above it (LevelTooCoarse)
        top = A.report.transport_level
        top = X.base_level if top is None else top
        deepest = X.base_level
        while X.count(deepest - 1) <= MAX_VERTICES:
            deepest -= 1
        depth = data.draw(st.integers(min(deepest, top), top), label="depth")
        # Hypothesis favours a range's lower bound (0 of 0 .. 9 came up in 248
        # of the 600 examples); the top of 1 .. 10 comes up about 1 in 10
        if data.draw(st.integers(1, 10), label="above") == 10:
            depth = top + 1
        want = outcome(per_level_ergodic, A, depth)
        calls, builds = [0], [0]
        with mock.patch.object(digraph, "_expansion", counted_expansions(calls)), \
                mock.patch.object(digraph, "build_digraph", counted_builds(builds)):
            got = outcome(Analysis.ergodic, A, depth)
        assert not A._digraphs  # the scan keeps no level it reads once
        passed = isinstance(got, ErgodicVerdict) and got.kind == SINGLE_CYCLE_TO_DEPTH
        if passed and calls[0] < X.count(depth) and not builds[0]:
            # cycle lifting certified levels that the walk did not reach,
            # and no level digraph was built
            event("lifting certificate")
            seen.update({("certificate", p), ("certificate", "multi-ball" if X.count(X.base_level) > 1
                                                else "one ball")})
            if X.height_exponent():
                seen.add(("certificate", "M >= 1"))
        if passed and isinstance(want, tuple) and want[0] is DecompositionTooLarge:
            # the certificate needs no level that the oracle builds
            event("oracle rerun at the default cap")
            want = outcome(per_level_ergodic, Analysis(f, X), depth)
        if not isinstance(want, ErgodicVerdict):
            event(want[0].__name__)
        elif want.kind == NOT_ERGODIC:
            event(f"NotErgodic {top - want.level} level(s) below the top")
        else:
            event(f"SingleCycleToDepth, {top - depth + 1} level(s)")
        assert got == want

    check()
    assert {("certificate", 2), ("certificate", 3), ("certificate", "M >= 1"),
            ("certificate", "multi-ball")} <= seen, seen


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_lifting_certifies_deep_scans_from_p_squared_images(p, monkeypatch):
    # x + 1 cycles Z / p^k for every k; the scan to level -40 stops after
    # one orbit of the p^2 level -2 balls instead of walking p^40 balls
    calls, builds = [0], [0]
    monkeypatch.setattr(digraph, "_expansion", counted_expansions(calls))
    monkeypatch.setattr(digraph, "build_digraph", counted_builds(builds))
    A = Analysis(parse_map("x+1", p), CompactDomain.zp(p))
    assert A.ergodic(-40) == ErgodicVerdict(kind=SINGLE_CYCLE_TO_DEPTH, depth=-40)
    assert 0 < calls[0] <= p * p and builds[0] == 0
