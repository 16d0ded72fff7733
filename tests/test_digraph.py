import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st
from test_domains import level_balls, sub_balls
from test_kernel import PRIMES, children, cycle_balls, domains, edge_map, one_lipschitz_instances
from test_polynomials import (
    as_ints,
    is_integral,
    padd,
    pmul,
    pscale,
    ptaylor,
    shift_variable,
    trimmed,
)
from test_scaling import scalar_exponent

from padicdyn import (
    Analysis,
    Ball,
    CompactDomain,
    cycle_decomposition,
    normalize_map,
    parse_domain,
    parse_map,
)
from padicdyn.config import AnalysisConfig
from padicdyn.digraph import ComponentSelection, LevelDigraph, subsidiary_edge_data
from padicdyn.domains import decompose_residues
from padicdyn.errors import (
    ConstantTermNotIntegral,
    DecompositionTooLarge,
    DerivativeRootInDomain,
    LevelTooCoarse,
    NotForwardInvariant,
    NotOneLipschitz,
    PadicDynError,
)
from padicdyn.hensel import hensel_lift
from padicdyn.padics import fraction_valuation


def p7_instance():
    return parse_map("(x^2-1)/x", 7), parse_domain("B(2,-1) + B(5,-1)", 7)


def p3_punctured_instance():
    return (
        parse_map("(2x^3 + x^2 + x)/(x^2 + 1)", 3),
        parse_domain("Zp - B(4,-2) - B(5,-2)", 3),
    )


def p3_quartic_instance():
    return parse_map("(x^4 + x^3 + 2x^2 + 1)/(x^3 - x + 1)", 3), CompactDomain.zp(3)


def keys(balls):
    return [b.key for b in balls]


def verify_bijection(A, source, sample_level, precision=12):
    """Certify that the edge out of ``source`` is a sampled bijection.

    Every representative of the target ball at ``sample_level`` is lifted
    back through F(x) = P(p^s x + a) - b Q(p^s x + a), integral by the
    choice of s; the lifted preimage must land in the enlarged source ball
    of radius p^t / |f'(a)| and map within p^sample_level of b.
    """
    f, t = A.f, source.level
    assert t <= A.intrinsic_level
    p, a = f.prime, source.key
    G = A.subsidiary(t)
    i = G.keys.index(a)
    target = G.vertices[G.succ[i]]
    s = G.subsidiary[i].s_exponent
    Pa, Qa = ptaylor(f.P, a), ptaylor(f.Q, a)
    e = scalar_exponent(f, a)
    k = precision + max(0, -sample_level)
    for b_ball in sub_balls(target, sample_level):
        b = b_ball.key
        F = as_ints(padd(shift_variable(Pa, p, s), pscale(shift_variable(Qa, p, s), b), -1))
        preimage = Fraction(p) ** s * hensel_lift(F, p, Fraction(0), k).root + a
        if fraction_valuation(preimage - a, p) < -(t - int(e)):
            return False
        if fraction_valuation(f.eval(preimage) - b, p) < -sample_level:
            return False
    return True


class TestSevenAdicTwoBallMap:
    def test_digraph_level_minus_two(self):
        f, X = p7_instance()
        G = Analysis(f, X).digraph(-2)
        assert len(G.vertices) == 14
        dec = cycle_decomposition(G)
        assert dec.cycle_lengths == [2, 6, 6]
        assert not dec.tail_indices
        # the digraph holds its decomposition, computed once
        assert G.cycles == dec
        assert G.cycles is G.cycles
        cycle_key_sets = [set(keys(c)) for c in cycle_balls(G, dec)]
        assert {Fraction(k) for k in (2, 9, 23, 26, 40, 47)} in cycle_key_sets

    def test_edge_map_against_modular_oracle(self):
        # f(x) = x - 1/x on residues mod 49, computed independently
        f, X = p7_instance()
        G = Analysis(f, X).digraph(-2)
        for v, w in edge_map(G).items():
            r = int(v.key)
            image = (r - pow(r, -1, 49)) % 49
            assert w.key == Fraction(image)

    def test_subsidiary_all_edges_kept_at_minus_two(self):
        f, X = p7_instance()
        G = Analysis(f, X).subsidiary(-2)
        assert G.is_subsidiary_equal
        assert all(d.s_exponent == 0 for d in G.subsidiary)

    def test_subsidiary_reads_need_subsidiary_data(self):
        G = Analysis(*p7_instance()).digraph(-2)
        assert G.subsidiary is None
        with pytest.raises(ValueError, match="^subsidiary data was not computed$"):
            G.is_subsidiary_equal
        with pytest.raises(ValueError, match="^subsidiary data was not computed$"):
            G.per_datum(str)

    def test_mp_and_ergodic(self):
        A = Analysis(*p7_instance())
        assert A.mp().kind == "MeasurePreserving"
        verdict = A.ergodic(-6)
        assert verdict.kind == "NotErgodic"
        assert verdict.level == -2
        assert verdict.cycle_count == 3

    def test_components_all_preserving(self):
        comps = Analysis(*p7_instance()).components(-2)
        assert len(comps) == 3
        assert all(c.verdict == "MeasurePreserving" for c in comps)
        assert all(c.route == "isometric" for c in comps)
        six_cycle = next(
            c for c in comps if set(keys(c.cycle)) == {Fraction(k) for k in (2, 9, 23, 26, 40, 47)}
        )
        assert CompactDomain.from_balls(six_cycle.cycle).measure == Fraction(6, 49)

    def test_bijection_certificate(self):
        source = Ball.containing(2, -2, 7)
        assert verify_bijection(Analysis(*p7_instance()), source, -4)


class TestThreeAdicPuncturedMap:
    def test_level_minus_two_structure(self):
        G = Analysis(*p3_punctured_instance()).digraph(-2)
        edges = {int(v.key): int(w.key) for v, w in edge_map(G).items()}
        assert edges == {0: 0, 1: 2, 2: 8, 3: 3, 6: 6, 7: 8, 8: 8}
        dec = cycle_decomposition(G)
        assert dec.cycle_lengths == [1, 1, 1, 1]
        assert {int(G.vertices[i].key) for i in dec.tail_indices} == {1, 2, 7}

    def test_intrinsic_level(self):
        assert Analysis(*p3_punctured_instance()).intrinsic_level == -2

    def test_components_verdicts(self):
        A = Analysis(*p3_punctured_instance())
        comps = {int(c.cycle[0].key): c for c in A.components(-2)}
        assert comps[8].verdict == "NotMeasurePreserving"
        assert comps[8].witness_level == -3
        for k in (0, 3, 6):
            assert comps[k].verdict == "MeasurePreserving"
        # the level -1 ball around 0 is the union of the three good cycles
        y2 = [comps[k] for k in (0, 3, 6)]
        assert all(c.verdict == "MeasurePreserving" for c in y2)
        merged = CompactDomain.from_balls([b for c in y2 for b in c.cycle])
        assert merged.base_level == -1 and [b.key for b in level_balls(merged, -1)] == [Fraction(0)]

    def test_restriction_to_bad_ball_not_preserving(self):
        f, _ = p3_punctured_instance()
        Y1 = CompactDomain.ball(8, -2, 3)
        verdict = Analysis(f, Y1).mp()
        assert verdict.kind == "NotMeasurePreserving"
        assert verdict.witness_level == -3
        assert verdict.in_degree >= 2

    def test_restriction_to_good_ball_preserves(self):
        f, _ = p3_punctured_instance()
        Y2 = CompactDomain.ball(0, -1, 3)
        assert Analysis(f, Y2).mp().kind == "MeasurePreserving"

    def test_level_above_transport_rejected(self):
        A = Analysis(*p3_punctured_instance())
        message = "^level -1 is above the certified 1-Lipschitz level -2$"
        with pytest.raises(LevelTooCoarse, match=message):
            A.components(-1)


class TestThreeAdicQuarticMap:
    def test_single_three_cycle_and_subsidiary(self):
        G = Analysis(*p3_quartic_instance()).subsidiary(-1)
        dec = cycle_decomposition(G)
        assert dec.is_single_cycle
        assert dec.cycle_lengths == [3]
        assert G.is_subsidiary_equal

    def test_intrinsic_level(self):
        assert Analysis(*p3_quartic_instance()).intrinsic_level == -1

    def test_mp_on_z3(self):
        assert Analysis(*p3_quartic_instance()).mp().kind == "MeasurePreserving"

    def test_bijection_on_each_cycle_edge(self):
        A = Analysis(*p3_quartic_instance())
        for k in (0, 1, 2):
            assert verify_bijection(A, Ball.containing(k, -1, 3), -4)


def test_translation_single_cycle():
    A = Analysis(parse_map("x + 1", 5), CompactDomain.zp(5))
    dec = cycle_decomposition(A.digraph(-2))
    assert dec.is_single_cycle and dec.cycle_lengths == [25]
    assert A.ergodic(-6).kind == "SingleCycleToDepth"
    assert verify_bijection(A, Ball.containing(3, -1, 5), -4)


def test_identity_all_self_loops():
    A = Analysis(parse_map("x", 3), CompactDomain.zp(3))
    dec = cycle_decomposition(A.digraph(-1))
    assert dec.cycle_lengths == [1, 1, 1]
    verdict = A.ergodic(-4)
    assert verdict.kind == "NotErgodic" and verdict.level == -1
    # every ball is its own measure-preserving component
    comps = A.components(-1)
    assert [c.verdict for c in comps] == ["MeasurePreserving"] * 3
    assert all(len(c.cycle) == 1 for c in comps)


def test_scaling_toward_zero_not_preserving():
    A = Analysis(parse_map("5x", 5), CompactDomain.zp(5))
    verdict = A.mp()
    assert verdict.kind == "NotMeasurePreserving"
    assert verdict.witness_ball.key == Fraction(0)
    assert verdict.in_degree == 5
    G = A.digraph(-2)
    dec = cycle_decomposition(G)
    assert dec.cycle_lengths == [1]
    assert keys(cycle_balls(G, dec)[0]) == [Fraction(0)]
    assert len(dec.tail_indices) == 24


def test_forward_invariance_checked():
    # x + 1/5 is an isometry but maps Z_5 outside itself
    A = Analysis(parse_map("x + 1/5", 5), CompactDomain.zp(5))
    with pytest.raises(NotForwardInvariant):
        A.digraph(A.transport_level)


def test_level_above_radius_rejected():
    A = Analysis(*p3_punctured_instance())
    with pytest.raises(LevelTooCoarse, match="above the certified 1-Lipschitz level -2"):
        A.digraph(-1)


def test_analysis_needs_a_one_lipschitz_map():
    # x/3 scales every distance by 3
    A = Analysis(parse_map("x/3", 3), CompactDomain.zp(3))
    assert A.report.classification == "BoundedScaling"
    for question in (lambda: A.transport_level, lambda: A.digraph(-1), A.mp,
                     lambda: A.ergodic(-2)):
        with pytest.raises(NotOneLipschitz, match=r"\(classification: BoundedScaling\)$"):
            question()


def test_analysis_builds_each_level_once():
    A = Analysis(*p3_punctured_instance())
    G = A.digraph(-3)
    assert A.digraph(-3) is G
    S = A.subsidiary(-3)
    assert A.subsidiary(-3) is S
    assert G.subsidiary is None
    assert (S.residues, S.succ) == (G.residues, G.succ)
    assert S.residues is G.residues


def test_out_degree_one_and_refinement_consistency():
    A = Analysis(*p3_punctured_instance())
    coarse = edge_map(A.digraph(-2))
    fine = edge_map(A.digraph(-3))
    for v in fine:
        assert fine[v].parent() == coarse[v.parent()]
    assert set(coarse) == set(A.digraph(-2).vertices)


def test_single_cycle_length_counts_measure():
    f, X = p3_quartic_instance()
    A = Analysis(f, X)
    for t in (-1, -2):
        G = A.digraph(t)
        dec = cycle_decomposition(G)
        if dec.is_single_cycle:
            assert len(dec.cycle_indices[0]) == X.measure / Fraction(3) ** t


def test_subsidiary_edges_subset_of_edges():
    G = Analysis(*p3_punctured_instance()).subsidiary(-2)
    all_edges = set(edge_map(G).items())
    V = G.vertices
    kept = {(V[i], V[j]) for i, j in enumerate(G.succ) if G.subsidiary[i].passes}
    assert kept <= all_edges


def _brute_force_s(f, a, b, bound=8):
    # least s >= 0 making P(p^s x + a) - (p^s y + b) Q(p^s x + a) integral:
    # the y^0 coefficients are those of P(p^s x+a) - b Q(p^s x+a) and the
    # y^1 coefficients those of -p^s Q(p^s x+a)
    p = f.prime
    for s in range(bound):
        shift = Fraction(p) ** s
        Pa = shift_variable(ptaylor(f.P, a), p, s)
        Qa = shift_variable(ptaylor(f.Q, a), p, s)
        const_part = padd(Pa, pscale(Qa, b), -1)
        y_part = pscale(Qa, shift)
        if is_integral(const_part, p) and is_integral(y_part, p):
            return s
    raise AssertionError("no s found")


def _s_exponent(f, a, b):
    # s of the edge a -> b from the integer edge data, on the least M that
    # makes a p^M and b p^M integers
    p, M = f.prime, 0
    while (a * p**M).denominator != 1 or (b * p**M).denominator != 1:
        M += 1
    y, y_image = int(a * p**M), int(b * p**M)
    return subsidiary_edge_data(f.rescaled(M), y, y_image, 0, 0).s_exponent


def test_s_exponent_matches_brute_force():
    rng = random.Random(99)
    f, X = p3_punctured_instance()
    for v in level_balls(X, -2):
        a = v.key
        image = f.eval(a)
        b = Fraction(image.numerator * pow(image.denominator, -1, 81) % 81)
        assert _s_exponent(f, a, b) == _brute_force_s(f, a, b)


def test_s_exponent_positive_outside_unit_ball():
    # around a center of norm p, rescaling is needed for integrality
    f = normalize_map([0, 0, 1], [1], 3)  # x^2
    a = Fraction(1, 3)
    b = Fraction(1, 9)
    s = _s_exponent(f, a, b)
    assert s == _brute_force_s(f, a, b)
    assert s > 0


def test_constant_term_must_be_integral():
    f = normalize_map([0, 1], [1], 3)  # identity
    a = Fraction(1, 3)
    b = Fraction(0)
    with pytest.raises(ConstantTermNotIntegral, match=r"at a=1/3, b=0$"):
        _s_exponent(f, a, b)


def test_intrinsic_level_needs_root_free_derivative():
    A = Analysis(parse_map("(x^2 + 2x)/2", 3), CompactDomain.zp(3))
    with pytest.raises(DerivativeRootInDomain):
        A.intrinsic_level


def test_mp_scan_route_with_derivative_root():
    # |f'| vanishes at -1; the scan finds a two-to-one collapse
    verdict = Analysis(parse_map("(x^2 + 2x)/2", 3), CompactDomain.zp(3)).mp()
    assert verdict.kind == "NotMeasurePreserving"
    # f = 0, 0, 1 at x = 0, 1, 2 mod 3
    assert (verdict.witness_level, verdict.witness_ball.key, verdict.in_degree) == (-1, 0, 2)


def test_mp_reads_the_level_below_the_transport_level_on_a_derivative_root():
    # x^3 fixes every residue mod 3 but collapses three balls mod 9: the
    # collapse is found one level below the transport level -1, whatever
    # the descent cap
    f = parse_map("x^3", 3)
    X = CompactDomain.zp(3)
    for config in (AnalysisConfig(descent_cap=0), AnalysisConfig()):
        A = Analysis(f, X, config)
        assert not A.report.derivative_root_free
        assert A.transport_level == -1
        verdict = A.mp()
        assert verdict.kind == "NotMeasurePreserving"
        assert (verdict.witness_level, verdict.witness_ball.key, verdict.in_degree) == (-2, 0, 3)


def test_components_need_a_root_free_derivative():
    A = Analysis(parse_map("x^3", 3), CompactDomain.zp(3))
    message = "^components need a root-free derivative on the domain$"
    with pytest.raises(DerivativeRootInDomain, match=message):
        A.components(-1)


def _residue_oracle(f, X, t, extra=2):
    """Level-t edges on rescaled keys y = p^M * key, M = X.height_exponent(),
    from every point r / p^M with r below p^(M - t + extra), evaluated in
    exact fractions and reduced with integer arithmetic."""
    p, M = f.prime, X.height_exponent()
    mod_t = p ** (M - t)
    edges = {}
    for r in range(p ** (M - t + extra)):
        x = Fraction(r, p**M)
        if not any(b.contains(x) for b in X.balls):
            continue
        image = f.eval(x) * p**M
        assert image.denominator % p != 0, f"{f} leaves B(0,{M}) at {x}"
        z = image.numerator * pow(image.denominator, -1, mod_t) % mod_t
        assert any(b.contains(Fraction(z, p**M)) for b in X.balls), f"{f} leaves the domain at {x}"
        # one image ball per ball: the map is 1-Lipschitz at level t
        assert edges.setdefault(r % mod_t, z) == z
    return edges


@pytest.mark.parametrize(
    "p,map_text,domain_text,depth",
    [
        (2, "x^3 + x + 1", "Zp", 3),
        (2, "(x^2+x+1)/(1+2x)", "Zp", 4),
        (2, "(x^2 + 3)/(1 + 4x)", "Zp - B(1,-2)", 3),
        (3, "x + 9x^2 + 1/3", "B(0,1)", 3),
        (2, "5x + 1/2 + 4x^2", "B(0,1)", 3),
        (2, "x + 1/4", "B(0,2)", 2),
    ],
)
def test_edges_match_residue_oracle_p2_and_rescaled(p, map_text, domain_text, depth):
    f, X = parse_map(map_text, p), parse_domain(domain_text, p)
    A = Analysis(f, X)
    top = min(A.transport_level, X.base_level)
    for t in range(top, top - depth, -1):
        G = A.digraph(t)
        assert G.height == X.height_exponent()
        assert G.keys == tuple(b.key for b in level_balls(X, t))
        lib = {G.residues[i]: G.residues[j] for i, j in enumerate(G.succ)}
        assert lib == _residue_oracle(f, X, t)


def test_too_fine_level_is_refused_and_ends_the_scan():
    # x^3 on Z_3 fixes every residue mod 3 and collapses balls mod 9; with
    # a budget of 5 balls, level -2 (9 balls) cannot be built, so the scan
    # stops at -1 with an honest Undecided
    f, X = parse_map("x^3", 3), CompactDomain.zp(3)
    tight = Analysis(f, X, AnalysisConfig(ball_cap=5))
    with pytest.raises(DecompositionTooLarge, match=r"^decomposition at level -2 needs 9 balls \(cap 5\)$"):
        tight.digraph(-2)
    verdict = tight.mp()
    assert verdict.kind == "Undecided"
    assert verdict.scanned_to == -1
    assert Analysis(f, X).mp().kind == "NotMeasurePreserving"


def _functional_graph(succ):
    """A LevelDigraph on Z_2 whose vertex i points to succ[i] (the cycle
    walk reads only the successor indices)."""
    n = len(succ)
    return LevelDigraph(2, -n, 0, tuple(range(n)), tuple(succ))


@st.composite
def _successor_lists(draw):
    """Successor lists of functional graphs: any map, a permutation, mostly
    1-cycles, or long tails into cycles that earlier walks closed."""
    n = draw(st.integers(1, 60))
    kind = draw(st.sampled_from(["any", "permutation", "fixed points", "long tails"]))
    if kind == "any":
        return draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    if kind == "permutation":
        return draw(st.permutations(range(n)))
    succ = list(range(n))
    if kind == "fixed points":
        for i in draw(st.lists(st.integers(0, n - 1), max_size=max(1, n // 4))):
            succ[i] = draw(st.integers(0, n - 1))
        return succ
    # cycles on the first c vertices; the rest are chains a -> a + 1 -> ...
    # -> b - 1, each ending in an earlier vertex, so the walk from a runs
    # the whole chain into a vertex that an earlier walk reached
    c = draw(st.integers(1, n))
    succ[:c] = draw(st.permutations(range(c)))
    cuts = sorted(draw(st.sets(st.integers(c + 1, n - 1), max_size=3))) if n > c + 1 else []
    for a, b in zip([c, *cuts], [*cuts, n]):
        succ[a:b - 1] = range(a + 1, b)
        succ[b - 1] = draw(st.integers(0, a - 1))
    return succ


@given(_successor_lists())
@example([0] * 60)
@example(list(range(60)))
@example([59, *range(59)])
def test_cycle_walk_matches_iterating_the_map(succ):
    n = len(succ)
    # v lies on a cycle iff it returns to itself within n steps
    on_cycle = []
    for v in range(n):
        u = succ[v]
        for _ in range(n):
            if u == v:
                break
            u = succ[u]
        on_cycle.append(u == v)
    cycles = set()
    for v in range(n):
        if on_cycle[v]:
            orbit = [v]
            while succ[orbit[-1]] != v:
                orbit.append(succ[orbit[-1]])
            k = orbit.index(min(orbit))
            cycles.add(tuple(orbit[k:] + orbit[:k]))
    dec = cycle_decomposition(_functional_graph(succ))
    assert dec.cycle_indices == tuple(sorted(cycles))
    assert dec.tail_indices == tuple(v for v in range(n) if not on_cycle[v])


def test_cycle_entered_from_a_tail_starts_at_its_smallest_vertex():
    # 0 -> 3 -> 2 -> 3: the walk from 0 enters the cycle {2, 3} at 3
    G = _functional_graph([3, 1, 3, 2])
    dec = cycle_decomposition(G)
    assert dec.cycle_indices == ((1,), (2, 3))
    assert dec.tail_indices == (0,)
    assert [[int(b.key) for b in c] for c in cycle_balls(G, dec)] == [[1], [2, 3]]


@given(PRIMES.flatmap(domains), st.integers(0, 2))
def test_children_of_vertex_i_are_the_finer_vertices_i_plus_k_n(X, depth):
    # the level t - 1 residues are the level t residues shifted by
    # k p^(M - t), k = 0 .. p - 1, in that order
    p, t = X.prime, X.base_level - depth
    M, coarse = decompose_residues(X, t)
    _, fine = decompose_residues(X, t - 1)
    n = len(coarse)
    assert len(fine) == p * n
    for k in range(p):
        for i, y in enumerate(coarse):
            assert fine[k * n + i] == y + k * p ** (M - t)


def components_oracle(A, t):
    """``Analysis.components`` at a level t <= t0 as it was on Balls: the
    children of each cycle ball and their images from the finer level's
    Ball-keyed edge dict."""
    G = A.digraph(t)
    cycles = cycle_balls(G, cycle_decomposition(G))
    if A.report.classification == "LocallyIsometric":
        return [ComponentSelection(t, cyc, "MeasurePreserving", "isometric") for cyc in cycles]
    finer = edge_map(A.digraph(t - 1))
    out = []
    for cyc in cycles:
        kids = {c for b in cyc for c in children(b)}
        indeg = {c: 0 for c in kids}
        witness = None
        for c in kids:
            target = finer[c]
            if target not in indeg:
                witness = c
                break
            indeg[target] += 1
        if witness is None:
            bad = [c for c, d in indeg.items() if d != 1]
            witness = min(bad, key=lambda b: b.key) if bad else None
        out.append(ComponentSelection(
            t, cyc, "MeasurePreserving" if witness is None else "NotMeasurePreserving",
            "refinement", None if witness is None else t - 1, witness,
        ))
    return out


@st.composite
def invariant_maps(draw):
    """(f, X, offset): f(x) = c + lam (x - c) + p^e R(x) / Q(x) on a domain
    X of ``test_kernel.domains``, half of them beyond Z_p, with c the least
    key of X and Q = 1 + k p^(M+1) x a unit on B(0, M).  R has degree d,
    and e >= Md - base_level makes |p^e R / Q| <= p^base_level on X, so f
    keeps a ball domain invariant.  lam = p or p^2 contracts; the cubic
    R = s (x - c)^3 gives |f'| = |lam + 3 s p^e (x - c)^2| both unit and
    smaller norms, so both verdicts occur on the refinement route."""
    p = draw(PRIMES)
    X = draw(st.one_of(domains(p, ("beyond",)), domains(p, ("zp", "ball", "punctured"))))
    M, c = X.height_exponent(), level_balls(X, X.base_level)[0].key
    lam = draw(st.sampled_from([1, -1, 1 + p, p, p * p]))
    if draw(st.booleans()):
        s = draw(st.integers(1, 9))
        R = [-s * c**3, 3 * s * c**2, -3 * s * c, s]
    else:
        R = trimmed(draw(st.lists(st.integers(-9, 9), min_size=1, max_size=4)))
    e = max(0, M * (len(R) - 1) - X.base_level) + draw(st.integers(0, 1))
    Q = trimmed([1, draw(st.integers(-3, 3)) * p ** (M + 1)])
    line = [c - lam * c, lam]
    P = padd(pmul(line, Q), pscale(R, Fraction(p) ** e))
    return normalize_map(P, Q, p), X, draw(st.integers(0, 1))


def test_components_match_the_ball_oracle():
    # at and below the intrinsic level t0, where components were certified
    # before they read levels t and t - 1 only; small caps keep the search
    # for t0 shallow, and the errors at t must match too
    config = AnalysisConfig(ball_cap=3000, descent_cap=8)
    verdicts = set()

    # derandomized: the closing check needs draws that reach both
    # refinement verdicts
    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(invariant_maps())
    def check(instance):
        f, X, offset = instance
        try:
            t = Analysis(f, X, config).intrinsic_level - offset
        except PadicDynError:
            event("no intrinsic level")
            return
        try:
            want = components_oracle(Analysis(f, X, config), t)
        except PadicDynError as exc:
            with pytest.raises(type(exc)) as info:
                Analysis(f, X, config).components(t)
            assert str(info.value) == str(exc)
            return
        got = Analysis(f, X, config).components(t)
        assert got == want
        verdicts.update((c.route, c.verdict) for c in got)

    check()
    assert {("refinement", "MeasurePreserving"), ("refinement", "NotMeasurePreserving")} <= verdicts


def descendants_permuted(f, X, cycle, u):
    """Whether f permutes the level-u balls of X inside the Balls of
    ``cycle``, one cycle of a level t > u, from brute-force residues."""
    p, M = f.prime, X.height_exponent()
    keys, images = brute_force_level(f, X, u)
    mod = p ** (M - cycle[0].level)
    tops = {int(b.key * p**M) % mod for b in cycle}
    inside = [(y, z) for y, z in zip(keys, images) if y % mod in tops]
    return sorted(z for _, z in inside) == [y for y, _ in inside]


def test_components_at_every_level_down_from_the_transport_level():
    # each MeasurePreserving cycle of levels l - 2 .. l permutes its
    # descendants three levels down; each NotMeasurePreserving one does not
    # permute its children, and its witness is one of them
    config = AnalysisConfig(ball_cap=3000, descent_cap=8)
    seen = set()

    @settings(max_examples=400, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
    @given(st.one_of(invariant_maps().map(lambda case: case[:2]), one_lipschitz_instances()),
           st.integers(0, 2))
    # |f'| = |12x^2 - 1| is 1 on Z_2 and 1/2 on the rest of B(0, 1)
    @example((parse_map("4x^3-x", 2), CompactDomain.ball(0, 1, 2)), 1)
    def check(instance, depth):
        f, X = instance
        try:
            A = Analysis(f, X, config)
            t = A.transport_level - depth
            if not A.report.derivative_root_free or X.count(t - 3) > 3**7:
                return
            got = A.components(t)
        except PadicDynError:
            return
        M = X.height_exponent()
        for c in got:
            cycle = list(c.cycle)
            seen.add((c.route, c.verdict, M > 0))
            if c.verdict == "MeasurePreserving":
                assert all(descendants_permuted(f, X, cycle, t - k) for k in (1, 2, 3))
            else:
                assert not descendants_permuted(f, X, cycle, t - 1)
                assert c.witness_level == t - 1
                assert c.witness_ball.parent() in cycle

    check()
    assert {
        ("refinement", "MeasurePreserving", False), ("refinement", "NotMeasurePreserving", False),
        ("refinement", "MeasurePreserving", True), ("refinement", "NotMeasurePreserving", True),
        ("isometric", "MeasurePreserving", False),
    } <= seen


def first_collision(G):
    """(the least ball of in-degree >= 2, its in-degree) of G, or None."""
    hits = Counter(G.succ)
    bad = [i for i in range(len(G.succ)) if hits[i] >= 2]
    return (G.vertices[bad[0]], hits[bad[0]]) if bad else None


def mp_oracle(A):
    """``Analysis.mp`` on the root-free route as it was when it read the
    intrinsic level t0 first: the first level from the transport level
    down to t0 - 1 holding a ball of in-degree >= 2, as (kind, witness
    level, witness ball, in-degree)."""
    t0 = A.intrinsic_level
    for t in range(A.transport_level, t0 - 2, -1):
        collision = first_collision(A.digraph(t))
        if collision:
            return ("NotMeasurePreserving", t, *collision)
    return "MeasurePreserving", None, None, None


# a MeasurePreserving verdict is checked on the brute-force digraph of
# level -6, or of the finest level with at most this many balls
BRUTE_FORCE_KEYS = 7**5


def brute_force_level(f, X, t):
    """(keys, images): the rescaled keys y = p^M key of X's level-t balls,
    in key order, and the rescaled key of f(y / p^M) mod p^(M - t) of each,
    from f's integer coefficients."""
    p, M = f.prime, X.height_exponent()
    d = max(len(f.P), len(f.Q)) - 1
    # f(y / p^M) = num(y) / den(y), both scaled by p^(Md)
    num = [c * p ** (M * (d - i)) for i, c in enumerate(f.P)]
    den = [c * p ** (M * (d - i)) for i, c in enumerate(f.Q)]
    mod = p ** (M - t)
    keys = []
    for b in X.balls:
        y0 = b.key * p**M
        assert y0.denominator == 1
        keys.extend(range(int(y0), mod, p ** (M - b.level)))
    keys.sort()
    images = []
    for y in keys:
        a = p**M * sum(c * y**i for i, c in enumerate(num))
        q = sum(c * y**i for i, c in enumerate(den))
        pv = p ** fraction_valuation(q, p)
        assert a % pv == 0, "the image leaves B(0, M)"
        images.append(a // pv * pow(q // pv, -1, mod) % mod)
    return keys, images


def test_mp_reads_levels_l_and_l_minus_one_only():
    # the same caps as the components property keep the oracle's
    # intrinsic-level search shallow
    config = AnalysisConfig(ball_cap=3000, descent_cap=8)
    seen = set()

    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
    @given(st.one_of(invariant_maps().map(lambda case: case[:2]), one_lipschitz_instances()))
    def check(instance):
        f, X = instance
        try:
            A = Analysis(f, X, config)
            if not A.report.derivative_root_free:
                return
            l = A.transport_level
            A.digraph(l)
        except PadicDynError:
            return
        try:
            want = mp_oracle(A)
        except PadicDynError:
            event("the oracle stops")
            return
        got = Analysis(f, X, config).mp()
        assert (got.kind, got.witness_level, got.witness_ball, got.in_degree) == want
        p, M = f.prime, X.height_exponent()
        if got.kind == "MeasurePreserving":
            t = -6
            while X.count(t) > BRUTE_FORCE_KEYS:
                t += 1
            t = min(t, l - 1)
            keys, images = brute_force_level(f, X, t)
            # a permutation of level t permutes every coarser level too
            assert sorted(images) == keys
            seen.add(("MeasurePreserving", M > 0, t == -6))
        else:
            w = got.witness_level
            seen.add(("NotMeasurePreserving", l - w))
            if X.count(w) <= BRUTE_FORCE_KEYS:
                keys, images = brute_force_level(f, X, w)
                hits = Counter(images)
                y = got.witness_ball.key * p**M
                assert min(k for k in keys if hits[k] >= 2) == y
                assert hits[y] == got.in_degree

    check()
    assert {
        ("NotMeasurePreserving", 0), ("NotMeasurePreserving", 1),
        ("MeasurePreserving", False, True), ("MeasurePreserving", True, True),
    } <= seen


def scan_oracle(A, depth=8):
    """``Analysis.mp`` on maps with derivative roots as it was when it
    scanned from the transport level down to ``depth`` levels below it:
    (kind, witness level, witness ball, in-degree, level over ball_cap)."""
    level = A.transport_level
    for t in range(level, level - depth - 1, -1):
        try:
            collision = first_collision(A.digraph(t))
        except DecompositionTooLarge:
            return "Undecided", None, None, None, t
        if collision:
            return ("NotMeasurePreserving", t, *collision, None)
    return "Undecided", None, None, None, None


@st.composite
def derivative_root_maps(draw):
    """f(x) = c + lam (x - c) + h (x - c)^d (1 + k p^(M+1) (x - c)) with
    d = 2 or p and h = s p^e, on a domain of ``test_kernel.domains``, half of
    them beyond Z_p, with c the least key of X.  e >= dM - base_level keeps
    a ball domain invariant, and for lam = 0, f' has the root c: f is
    constant for s = 0, and y -> y^p in y = p^M x for d = p, s = 1 and k = 0
    on B(0, M), which permutes the residues mod p and collides mod p^2."""
    p = draw(PRIMES)
    X = draw(st.one_of(domains(p, ("beyond",)), domains(p, ("zp", "ball", "punctured"))))
    M, c = X.height_exponent(), level_balls(X, X.base_level)[0].key
    d = draw(st.sampled_from([2, p]))
    lam = draw(st.sampled_from([0, p, p * p, 1]))
    s, k = draw(st.integers(0, 9)), draw(st.integers(-2, 2))
    e = max(0, d * M - X.base_level) + draw(st.integers(0, 1))
    # R(z) = lam z + h z^d (1 + k p^(M+1) z), and P(x) = c + R(x - c) by Horner
    R = padd([0, lam], [0] * d + [Fraction(p) ** e * s, Fraction(p) ** e * s * k * p ** (M + 1)])
    P = []
    for a in reversed(R):
        P = padd(pmul(P, [-c, 1]), [a])
    return normalize_map(padd(P, [c]), [1], p), X


def test_mp_with_derivative_roots_matches_the_level_scan():
    # wherever the scan down to l - 8 is definitive, or stops at a level
    # over ball_cap, levels l and l - 1 give the same verdict and witness
    config = AnalysisConfig(ball_cap=3000, descent_cap=8)
    seen = set()

    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
    @given(st.one_of(derivative_root_maps(), invariant_maps().map(lambda case: case[:2]),
                     one_lipschitz_instances()))
    def check(instance):
        f, X = instance
        try:
            A = Analysis(f, X, config)
            if A.report.derivative_root_free:
                return
            want = scan_oracle(A)
        except PadicDynError:
            return
        if want[0] == "Undecided" and want[4] is None:
            event("the scan is undecided")
            return
        got = Analysis(f, X, config).mp()
        assert (got.kind, got.witness_level, got.witness_ball, got.in_degree) == want[:4]
        l = A.transport_level
        if got.kind == "Undecided":
            assert got.scanned_to == max(want[4], l - 2) + 1
            seen.add(("Undecided", l - want[4]))
        else:
            seen.add(("NotMeasurePreserving", l - got.witness_level, X.height_exponent() > 0))

    check()
    assert {
        ("NotMeasurePreserving", 0, False), ("NotMeasurePreserving", 1, False),
        ("NotMeasurePreserving", 0, True), ("NotMeasurePreserving", 1, True),
    } <= seen


def test_measure_preserving_maps_are_locally_isometric():
    config = AnalysisConfig(ball_cap=3000, descent_cap=8)
    verdicts = set()

    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
    @given(st.one_of(invariant_maps().map(lambda case: case[:2]), one_lipschitz_instances(),
                     derivative_root_maps()))
    def check(instance):
        try:
            A = Analysis(*instance, config)
            verdict = A.mp()
        except PadicDynError:
            return
        verdicts.add(verdict.kind)
        if verdict.kind == "MeasurePreserving":
            assert A.report.classification == "LocallyIsometric"

    check()
    assert verdicts == {"MeasurePreserving", "NotMeasurePreserving", "Undecided"}
