import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_domains import level_balls
from test_polynomials import as_ints, pmul, trimmed
from test_scaling import scalar_exponent

from padicdyn import (
    Analysis,
    CompactDomain,
    certify_no_roots_qp,
    classify,
    degree_gate,
    fraction_valuation,
    global_check,
    global_obstruction,
    lower_bound_bF,
    parse_map,
)
from padicdyn import cli, global_qp
from padicdyn.config import AnalysisConfig
from padicdyn.digraph import UNDECIDED, MPVerdict
from padicdyn.errors import (
    DecompositionTooLarge,
    DepthCapExceeded,
    PadicDynError,
    PoleInDomain,
    RootCertified,
)
from padicdyn.global_qp import (
    ERGODICITY,
    MINIMALITY,
    GlobalGateReport,
    ReductionFailure,
)
from padicdyn.padics import ceil_div, int_valuation
from padicdyn.polynomials import _int_divexact, _int_gcd, _int_mul, poly_eval
from padicdyn.maps import RationalMap, normalize_map
from padicdyn.scaling import LOCALLY_1_LIPSCHITZ


@pytest.mark.parametrize(
    "p,text,passed,alpha,m,n",
    [
        (7, "(x^2-1)/x", True, 0, 2, 1),
        (7, "1/x", False, 0, 0, 1),
        (5, "5x", False, 1, 1, 0),
        (3, "(x^4 + x^3 + 2x^2 + 1)/(x^3 - x + 1)", True, 0, 4, 3),
    ],
)
def test_degree_gate(p, text, passed, alpha, m, n):
    gate = degree_gate(parse_map(text, p))
    assert gate.gate_passed is passed
    assert (gate.alpha, gate.m, gate.n) == (alpha, m, n)


def test_compute_n_integral_fast_path():
    assert degree_gate(parse_map("(x^4 + x^3 + 2x^2 + 1)/(x^3 - x + 1)", 3)).N_exponent == 1
    assert degree_gate(parse_map("(x^2-1)/x", 7)).N_exponent == 1


def test_compute_n_with_fractional_coefficient():
    # (x^2 - 7^-3)/x passes the gate and needs p^N > p^3
    f = parse_map("(x^2 - 1/343)/x", 7)
    gate = degree_gate(f)
    assert gate.gate_passed
    n = gate.N_exponent
    assert n == 4
    # oracle for the norm conditions defining N: at |x| = p^N the numerator
    # and denominator of f' behave like their leading terms
    sphere = CompactDomain.sphere(n, 7)
    for b in level_balls(sphere, n - 1 - 2):
        x = b.key
        assert fraction_valuation(f.eval(x), 7) == fraction_valuation(x, 7)
        assert scalar_exponent(f, x) == 0


def test_root_certification_modes():
    assert certify_no_roots_qp((1, 0, 1), 7)[0] == "root-free"
    assert certify_no_roots_qp((0, 1), 7)[0] == "root"
    assert certify_no_roots_qp((-2, 0, 1), 7)[0] == "root"
    # the bound is for |F| itself: |49 (x^2 + 1)| >= p^-2 on Q_7
    assert certify_no_roots_qp((49, 0, 49), 7) == ("root-free", None, -2)
    assert certify_no_roots_qp((), 7) == ("root", None, None)
    with pytest.raises(ValueError, match="without trailing zeros$"):
        certify_no_roots_qp((1, 0, 1, 0), 7)


def _reduction_ball_report(f, config=AnalysisConfig()):
    """The classification of the reduction ball B(0, N-1), or None where the
    reduction stops before it: a failed gate or a denominator that is not
    certified root-free on Q_p."""
    gate = degree_gate(f, config)
    if not gate.gate_passed or gate.q1_certification != "root-free":
        return None
    return classify(f, CompactDomain.ball(0, gate.N_exponent - 1, f.prime), config)


def test_global_checks_quartic_yes():
    f = parse_map("(x^4 + x^3 + 2x^2 + 1)/(x^3 - x + 1)", 3)
    g = global_check(f)
    assert g.isometry == "Yes"
    assert g.measure_preserving == "Yes"
    assert g.forward_invariant_ball is True
    assert g.isometry_reason == "reduction ball is invariant, isometric and invertible"
    assert g.measure_preserving_reason == (
        "measure preserving on the invariant reduction ball "
        "(equivalent to invertible local isometry here)"
    )


def test_global_checks_translation_yes():
    for p in (2, 3, 7):
        assert global_check(parse_map("x + 1", p)).isometry == "Yes"


def test_global_checks_reciprocal_fails_gate():
    f = parse_map("1/x", 7)
    g = global_check(f)
    assert g.isometry == "No"
    assert "gate" in g.isometry_reason


def test_global_check_with_pole_reports_root():
    # (x^2-1)/x passes the gate but x has a root in Q_7: both checks agree
    f = parse_map("(x^2-1)/x", 7)
    g = global_check(f)
    assert g.isometry == g.measure_preserving == "No"
    assert "root" in g.isometry_reason and "root" in g.measure_preserving_reason


def test_mp_equals_inv_iso_on_one_lipschitz_corpus():
    rng = random.Random(424242)
    checked = 0
    for _ in range(40):
        p = rng.choice([2, 3, 5])
        n = rng.randint(0, 2)
        q = [rng.randint(-6, 6) for _ in range(n)] + [1]
        pc = [rng.randint(-6, 6) for _ in range(n + 1)] + [1]
        f = normalize_map(pc, q, p)
        report = _reduction_ball_report(f)
        if report is None or not report.is_one_lipschitz:
            continue  # the equivalence is only claimed for 1-Lipschitz maps
        g = global_check(f)
        assert g.isometry == g.measure_preserving
        checked += 1
    assert checked >= 10


def test_invariant_sphere_witness():
    f = parse_map("(x^2-1)/x", 7)
    w = global_obstruction(f, ERGODICITY)
    assert w.kind == "InvariantSphere"
    assert w.region.radius_exponent == 1
    assert w.verified
    # direct check of sphere invariance at level -2 representatives
    sphere = CompactDomain.sphere(1, 7)
    for b in level_balls(sphere, -2):
        assert -fraction_valuation(f.eval(b.key), 7) == 1


def test_sphere_invariance_beyond_n():
    # every gate-passing map keeps the spheres at N, N+1, N+2 invariant
    for p, text in [(3, "(x^4 + x^3 + 2x^2 + 1)/(x^3 - x + 1)"), (7, "(x^2-1)/x")]:
        f = parse_map(text, p)
        n = degree_gate(f).N_exponent
        for k in range(3):
            sphere = CompactDomain.sphere(n + k, p)
            for b in level_balls(sphere, n + k - 1 - 2):
                assert -fraction_valuation(f.eval(b.key), p) == n + k


def test_contraction_witness_for_scaled_identity():
    f = parse_map("5x", 5)
    w = global_obstruction(f, MINIMALITY)
    assert w.kind == "InvariantBall"
    assert w.verified
    # orbits fall into the witness ball and stay
    x = Fraction(3)
    for _ in range(4):
        x = f.eval(x)
    assert w.region.contains(x)


def test_escape_witness_for_square():
    f = parse_map("x^2", 5)
    w = global_obstruction(f, MINIMALITY)
    assert w.kind == "EscapingRegion"
    assert w.case_tag == "escaping-orbit"
    assert w.verified
    # an orbit with |x| >= p^N never re-enters the avoided ball
    x = Fraction(5**w.sphere_exponent)
    x = Fraction(1, x)  # |x| = p^N
    for _ in range(3):
        x = f.eval(x)
        assert not w.region.contains(x)


def test_mp_distortion_witnesses_for_gate_failures():
    rng = random.Random(77)
    produced = 0
    while produced < 20:
        p = rng.choice([2, 3, 5])
        kind = rng.choice(["contract", "expand", "shift"])
        if kind == "contract":
            # m <= n with constant denominator of larger degree
            pc = [rng.randint(-4, 4), 1]
            q = [rng.randint(-4, 4), rng.randint(-4, 4), 1]
            f = normalize_map(pc, q, p)
            if certify_no_roots_qp(f.Q, p)[0] != "root-free":
                continue
        elif kind == "expand":
            f = normalize_map([0, 0, rng.randint(1, 3) * p + 1], [1], p)
        else:
            f = normalize_map([0, p], [1], p)  # alpha = 1
        gate = degree_gate(f)
        if gate.gate_passed:
            continue
        w = global_obstruction(f, ERGODICITY)
        assert w.verified, f"unverified witness for {f}"
        assert w.kind in ("InvariantBall", "EscapingRegion")
        produced += 1


def test_an_unknown_obstruction_goal_is_refused():
    with pytest.raises(ValueError, match="^unknown goal 'Measure'$"):
        global_obstruction(parse_map("x^2", 3), "Measure")


def test_minimality_witness_needs_pole_free_denominator_for_contraction():
    with pytest.raises(PoleInDomain):
        global_obstruction(parse_map("1/x", 7), MINIMALITY)


def test_a_denominator_undecided_at_the_cap_is_not_reported_as_a_pole():
    f = parse_map("(3-2*x+3*x^2)/(2+7*x+2*x^2)", 7)
    assert certify_no_roots_qp(f.Q, 7, AnalysisConfig(descent_cap=1))[0] == "unknown"
    with pytest.raises(DepthCapExceeded, match="hit the depth cap 1$"):
        global_obstruction(f, ERGODICITY, AnalysisConfig(descent_cap=1))
    assert global_obstruction(f, ERGODICITY).verified


def test_reduction_ball_beyond_unit_ball_isometry():
    # translation by 1/9 passes the gate with N = 3; the reduction ball
    # B(0,2) reaches outside Z_3 and the verdict is still decided exactly
    f = parse_map("x + 1/9", 3)
    gate = degree_gate(f)
    assert gate.N_exponent == 3
    g = global_check(f)
    assert g.isometry == "Yes" and g.measure_preserving == "Yes"
    assert _reduction_ball_report(f).classification == "LocallyIsometric"


def test_reduction_ball_beyond_unit_ball_expansion_refused():
    # a fractional middle coefficient makes |f'(0)| = 9: not an isometry,
    # and the derivative also vanishes inside the reduction ball
    f = parse_map("(x^3 + x/9 + 1)/(x^2 + 1)", 3)
    gate = degree_gate(f)
    assert gate.gate_passed and gate.q1_certification == "root-free"
    assert gate.N_exponent == 3
    g = global_check(f)
    assert g.isometry == "No"
    assert _reduction_ball_report(f).classification == "LocallyRhoLipschitz"


@pytest.mark.parametrize(
    "failure,f,config",
    [
        (ReductionFailure.DEGREE_GATE, parse_map("1/x", 7), None),
        (ReductionFailure.DENOMINATOR_ROOT, parse_map("x^2/(x-1)", 3), None),
        # x^2 + 3 has no root in Q_3, but no descent level separates it from 0
        (ReductionFailure.DENOMINATOR_UNDECIDED, parse_map("(x^3+1)/(x^2+3)", 3),
         AnalysisConfig(descent_cap=0)),
        (ReductionFailure.NOT_ONE_LIPSCHITZ, parse_map("(x^3 + x/9 + 1)/(x^2 + 1)", 3), None),
        (ReductionFailure.BALL_NOT_INVARIANT,
         normalize_map([-3, -1, -4, 1], [6, -2, 1], 2), None),
    ],
)
def test_reduction_failure_reasons(failure, f, config):
    g = global_check(f) if config is None else global_check(f, config)
    assert g.isometry_reason == g.measure_preserving_reason == failure.text
    assert (g.isometry, g.measure_preserving) == (failure.isometry, failure.measure_preserving)
    assert g.forward_invariant_ball is (
        False if failure is ReductionFailure.BALL_NOT_INVARIANT else None
    )


def test_reduction_failure_texts_and_verdicts():
    # the reasons and verdict pairs the global command prints
    assert [(r.text, r.isometry, r.measure_preserving) for r in ReductionFailure] == [
        ("degree gate failed", "No", "No"),
        ("denominator has a root in Q_p", "No", "No"),
        ("denominator root-freeness undecided", "Undecided", "Undecided"),
        ("not locally 1-Lipschitz on the reduction ball", "No", "Undecided"),
        ("reduction ball is not forward invariant", "No", "No"),
    ]


def test_an_undecided_scan_leaves_an_uncertified_isometry_undecided():
    # x + 2/3 is an isometry of Q_3; with a descent cap of 1, T1 = 9 is not
    # separated from 0, so the reduction ball is classified on the profile
    # route (Locally1Lipschitz, every exponent 0) and its scan is Undecided
    f, config = parse_map("(2+3x)/3", 3), AnalysisConfig(descent_cap=1)
    g = global_check(f, config)
    report = _reduction_ball_report(f, config)
    assert report.classification == LOCALLY_1_LIPSCHITZ
    assert report.scalar_profile == {0: 27}
    assert (g.isometry, g.measure_preserving) == ("Undecided", "Undecided")
    assert g.isometry_reason == g.measure_preserving_reason == "cycle criterion undecided"


@pytest.mark.parametrize("text,root_free", [
    # T1 has a root in B(0, 0); every exponent of the profile is 0
    ("(2-6x^2+2x^3)/(5+4x+2x^2)", False),
    # |f'| = 1/3 on three of the balls of the scaling radius
    ("(5-2x+5x^2+4x^3)/(-4+5x-8x^2)", True),
])
def test_an_undecided_scan_keeps_a_certified_non_isometry(monkeypatch, text, root_free):
    f = parse_map(text, 3)
    report = _reduction_ball_report(f)
    assert report.derivative_root_free is root_free
    assert (min(report.scalar_profile) < 0) is root_free
    monkeypatch.setattr(Analysis, "mp", lambda self: MPVerdict(kind=UNDECIDED))
    g = global_check(f)
    assert (g.isometry, g.measure_preserving) == ("No", "Undecided")
    assert g.isometry_reason == (
        "not locally isometric on the reduction ball (classification: Locally1Lipschitz)"
    )


def _within(lo, hi, e):
    return (lo is None or lo <= e) and (hi is None or e <= hi)


# the depth of the sweep oracle, below the checked region's base level
SWEEP_DEPTH = 4


def _sampled_sweep(f, X, lo, hi, config):
    """An oracle independent of the ball probes: f at every ball centre
    SWEEP_DEPTH levels below X, in key order."""
    samples = level_balls(X, X.base_level - SWEEP_DEPTH, config)
    return all(_within(lo, hi, -fraction_valuation(f.eval(b.key), f.prime)) for b in samples)


def _outcome(check, *args):
    try:
        return check(*args)
    except PadicDynError as exc:
        return type(exc), str(exc)


_small_fraction = st.builds(
    Fraction, st.integers(-9, 9), st.sampled_from([1, 1, 1, 2, 3, 5, 7, 9, 25, 49])
)


@st.composite
def _region_cases(draw):
    """(f, X, lo, hi, config, pole, zero): a claim on a ball or sphere X, and
    the roots of Q and of P drawn inside X (None when none was drawn)."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    if draw(st.booleans()):
        X = CompactDomain.ball(0, draw(st.integers(-1, 1)), p)
    else:
        X = CompactDomain.sphere(draw(st.integers(-1, 2)), p)
    pc = draw(st.lists(_small_fraction, min_size=1, max_size=4))
    qc = draw(st.lists(_small_fraction, min_size=1, max_size=3))
    if not any(qc):
        qc[-1] = Fraction(1)
    t = X.base_level
    keys = level_balls(X, t)

    def point(key):
        # a point of the base-level ball of this key: the key plus
        # u p^(j - t), which is a key of a finer ball only for some u >= 0
        return key + draw(st.integers(-9, 9)) * Fraction(p) ** (draw(st.integers(0, 5)) - t)

    key = keys[draw(st.integers(0, len(keys) - 1))].key
    pole = point(keys[draw(st.integers(0, len(keys) - 1))].key) if draw(st.booleans()) else None
    zero = point(key) if draw(st.booleans()) else None
    q = trimmed(qc) if pole is None else pmul(trimmed(qc), [-pole, 1])
    f = normalize_map(pc if zero is None else pmul(pc, [-zero, 1]), q, p)
    # half the bounds hold at the key of the zero's ball, so that only
    # points deeper down (near a root of P or Q) can break them
    if poly_eval(f.P, key) and poly_eval(f.Q, key) and draw(st.booleans()):
        bound = -fraction_valuation(f.eval(key), p) + draw(st.integers(-1, 1))
    else:
        bound = draw(st.integers(-6, 6))
    # the witnesses' claim shapes: an image bound, an escape bound, a sphere
    lo, hi = draw(st.sampled_from([(None, bound), (bound, None), (bound, bound),
                                   (bound - 1, bound)]))
    cap = draw(st.sampled_from([1_000_000, 1_000_000, 1_000_000, 3]))
    return f, X, lo, hi, AnalysisConfig(ball_cap=cap), pole, zero


def test_region_check_proofs_and_refutations_are_confirmed(monkeypatch):
    # a refutation names no point: the keys the walk probes are recorded,
    # and f must break the claim at one of them
    probed = []
    real_probe = global_qp._ball_probe

    def recording_probe(G, p, y, k):
        probed.append(y)
        return real_probe(G, p, y, k)

    monkeypatch.setattr(global_qp, "_ball_probe", recording_probe)
    seen, alphas, heights = set(), set(), set()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_region_cases())
    def check(case):
        f, X, lo, hi, config, pole, zero = case
        p, scale = f.prime, f.prime ** X.height_exponent()
        probed.clear()
        try:
            got = global_qp._holds_on_region(f, X, lo, hi, config)
        except PadicDynError as exc:
            got = exc
        keys = [Fraction(y, scale) for y in reversed(probed)]
        if got is True:
            # a proof covers every point: no drawn pole, no drawn zero under
            # a lower bound, and every centre of the sweep keeps the claim
            assert pole is None and (zero is None or lo is None)
            assert _sampled_sweep(f, X, lo, hi, AnalysisConfig()) is True
        elif got is False:
            assert any(
                any(b.contains(a) for b in X.balls) and poly_eval(f.Q, a)
                and not _within(lo, hi, -fraction_valuation(f.eval(a), p))
                for a in keys
            )
        elif isinstance(got, PoleInDomain):
            assert any(poly_eval(f.Q, a) == 0 for a in keys)
        elif isinstance(got, DepthCapExceeded):
            # Q is not separated from 0 on the unsettled ball
            with pytest.raises((RootCertified, DepthCapExceeded)):
                lower_bound_bF(f.Q, CompactDomain.from_balls([got.suspect_ball]))
        else:
            assert isinstance(got, DecompositionTooLarge) and config.ball_cap == 3
        seen.add((got if isinstance(got, bool) else type(got), pole is not None))
        alphas.add(f.alpha != 0)
        heights.add(X.height_exponent())

    check()
    assert {(True, False), (False, False), (False, True), (PoleInDomain, True),
            (DepthCapExceeded, True)} <= seen
    assert DecompositionTooLarge in {got for got, _ in seen}
    # the probes' rescaling offsets are exercised: alpha cancels from
    # v(Q) - v(P), and regions reach beyond Z_p
    assert alphas == {True, False} and max(heights) >= 2


def test_a_lower_bound_is_not_settled_across_a_zero():
    # |x + 1| = 1 at the key 0 of Z_5, but x + 1 vanishes at -1: |P| is not
    # constant on Z_5, and the key 4 of a level -1 ball refutes |f| >= 1
    f = normalize_map([1, 1], [1], 5)
    assert global_qp._holds_on_region(f, CompactDomain.zp(5), 0, None, AnalysisConfig()) is False
    assert global_qp._holds_on_region(f, CompactDomain.zp(5), None, 0, AnalysisConfig()) is True


def test_a_pole_between_the_keys_is_not_proven():
    # 0/(1 + x) keeps its pole at -1, which no key of B(1, -1) at p = 2 hits:
    # the balls around it never have |Q| constant
    f = normalize_map([0], [1, 1], 2)
    with pytest.raises(DepthCapExceeded) as exc:
        global_qp._holds_on_region(f, CompactDomain.ball(1, -1, 2), None, 0, AnalysisConfig())
    assert exc.value.suspect_ball.level == -33
    assert exc.value.suspect_ball.contains(-1)


def _shift_claims(monkeypatch):
    """Move every witness claim one level past its bound: a sphere claim to
    the next sphere, an image bound one level in, an escape bound one out."""
    real = global_qp._holds_on_region

    def shifted(f, X, lo, hi, config):
        if lo == hi:
            lo = hi = lo + 1
        else:
            lo = None if lo is None else lo + 1
            hi = None if hi is None else hi - 1
        return real(f, X, lo, hi, config)

    monkeypatch.setattr(global_qp, "_holds_on_region", shifted)


@pytest.mark.parametrize(
    "p,text,goal,tag",
    [
        (7, "(x^2-1)/x", ERGODICITY, "invariant-sphere"),
        # |f| = p on all of Z_5, and the image ball is B(0, 1)
        (5, "1/(5x^2+5x+5)", MINIMALITY, "invariant-ball"),
        # |x + 1| = p on S(0, 1)
        (3, "x+1", MINIMALITY, "escaping-orbit"),
        # |x/3| = p^3 on S(0, 2)
        (3, "x/3", ERGODICITY, "measure-distorting-escape"),
    ],
)
def test_claim_one_level_past_an_attained_bound_fails(monkeypatch, p, text, goal, tag):
    f = parse_map(text, p)
    w = global_obstruction(f, goal)
    assert (w.case_tag, w.verified) == (tag, True)
    _shift_claims(monkeypatch)
    assert global_obstruction(f, goal).verified is False


def test_cli_prints_failed_for_a_claim_past_its_bound(monkeypatch, capsys):
    _shift_claims(monkeypatch)
    code = cli.main(["-p", "7", "--map", "(x^2-1)/x", "witness", "--goal", "ergodicity"])
    assert code == 1
    assert capsys.readouterr().out.splitlines()[-1] == "verified at depth 4: FAILED"


@pytest.mark.parametrize("map_text", ["(-7+5*x^2+6*x^3)/(7)", "(3-2*x+3*x^2)/(2+7*x+2*x^2)"])
def test_witness_evaluates_f_at_no_point(monkeypatch, capsys, map_text):
    # near the roots of P in the second map's invariant ball, the proof
    # reads the probes' bounds on |P|, not values of f
    real = RationalMap.eval
    calls = []

    def counted(self, x):
        calls.append(x)
        return real(self, x)

    monkeypatch.setattr(RationalMap, "eval", counted)
    assert cli.main(["-p", "7", f"--map={map_text}", "witness", "--goal", "ergodicity"]) == 0
    assert "verified at depth 4: ok" in capsys.readouterr().out
    assert calls == []


# -- the P1/Q1 quantities against the Fraction code they replaced -------------
#
# The global module once kept P1 = P / p^v(lead P) and Q1 = Q / p^v(lead Q)
# as Fraction polynomials and read N0, N, the gate's certification and the
# witnesses' levels from their coefficients.  The copies below do that on
# Fraction coefficient lists; the library reads the same numbers as integer
# valuation differences on P and Q.


def _old_lemma_n_bound(F, p):
    best = 1
    for c in F[:-1]:
        if c != 0:
            v = int(fraction_valuation(c, p))
            if v < 0:
                best = max(best, 1 - v)
    return best


def _old_unit_normalized(F, p):
    v = int(fraction_valuation(F[-1], p))
    return v, [c * Fraction(p) ** -v for c in F]


def _old_certify_no_roots_qp(F, p, config):
    if not F:
        return "root", None, None
    k, G = _old_unit_normalized(F, p)
    if len(F) == 1:
        return "root-free", None, -k
    n0 = _old_lemma_n_bound(G, p)
    clear = min(0, min(int(fraction_valuation(c, p)) for c in F if c))
    integral = [c * Fraction(p) ** -clear for c in F]
    # the descent cleared an integral F's denominators, which are units
    den = lcm(*(c.denominator for c in integral))
    try:
        inside = lower_bound_bF(
            as_ints(c * den for c in integral), CompactDomain.ball(0, n0, p), config
        )
    except RootCertified as exc:
        return "root", exc.ball, None
    except DepthCapExceeded:
        return "unknown", None, None
    return "root-free", None, min(inside - clear, (len(F) - 1) * n0 - k)


def _old_p1_q1(f):
    p = f.prime
    ap = int_valuation(f.P[-1], p) if f.P else 0
    aq = int_valuation(f.Q[-1], p)
    return [Fraction(a, p**ap) for a in f.P], [Fraction(b, p**aq) for b in f.Q]


def _old_leading_term_exponent(f):
    P1, Q1 = _old_p1_q1(f)
    return max(_old_lemma_n_bound(P1, f.prime), _old_lemma_n_bound(Q1, f.prime))


def _old_reduction_exponent(f):
    p = f.prime
    P1, Q1 = _old_p1_q1(f)
    n = _old_leading_term_exponent(f)
    if not all(fraction_valuation(c, p) >= 0 for c in P1 + Q1):
        num, Q = list(f.t1), list(f.Q)
        den = _int_mul(Q, Q)
        g = _int_gcd(num, den)
        if len(g) > 1:
            num, den = _int_divexact(num, g), _int_divexact(den, g)
        n = max(n, _old_lemma_n_bound(_old_unit_normalized(num, p)[1], p),
                _old_lemma_n_bound(_old_unit_normalized(den, p)[1], p))
    return n


def _old_degree_gate(f, config):
    cert = _old_certify_no_roots_qp(_old_p1_q1(f)[1], f.prime, config)[0]
    passed = f.alpha == 0 and f.m == f.n + 1
    return GlobalGateReport(
        f.alpha, f.m, f.n, passed, cert, _old_reduction_exponent(f) if passed else None
    )


def _old_witness(f, goal, config):
    """(kind, derived_levels, verified) of the parent's witness for goal."""
    p, alpha, m, n = f.prime, f.alpha, f.m, f.n
    check = global_qp._holds_on_region
    if goal == ERGODICITY and alpha == 0 and m == n + 1:
        N = _old_reduction_exponent(f)
        return "InvariantSphere", {"N": N}, check(f, CompactDomain.sphere(N, p), N, N, config)
    strict = goal == ERGODICITY
    n0 = _old_leading_term_exponent(f)
    if m <= n or (m == n + 1 and alpha > 0):
        P1, Q1 = _old_p1_q1(f)
        cert, ball, l0 = _old_certify_no_roots_qp(Q1, p, config)
        if cert == "root":
            raise PoleInDomain(
                "the invariant-ball witness needs a pole-free denominator", ball=ball
            )
        if cert == "unknown":
            raise DepthCapExceeded(
                "the invariant-ball witness needs a pole-free denominator: its root "
                f"descent hit the depth cap {config.descent_cap}"
            )
        if m == n + 1:
            N = n0
        else:
            N = max(n0, ceil_div(-alpha + strict, n + 1 - m))
        peak = max([0] + [N * i - int(fraction_valuation(c, p)) for i, c in enumerate(P1) if c])
        l1 = -alpha - l0 + peak
        n1 = max(N, l1)
        region = n1 + 1 if strict else n1
        levels = {"N0": n0, "N": N, "l0": l0, "l1": l1, "N1": n1}
        return "InvariantBall", levels, check(f, CompactDomain.ball(0, region, p), None, n1, config)
    N = n0 if m - n == 1 else max(n0, ceil_div(alpha + strict, m - n - 1))
    sphere_exp = N + 1 if strict else N
    min_image = sphere_exp + 1 if strict else sphere_exp
    verified = all(
        check(f, CompactDomain.sphere(sphere_exp + k, p), min_image, None, config)
        for k in range(3)
    )
    return "EscapingRegion", {"N0": n0, "N": N}, verified


def _new_witness(f, goal, config):
    w = global_obstruction(f, goal, config)
    return w.kind, w.derived_levels, w.verified


def _new_certification(f, config):
    """certify_no_roots_qp on Q, with its bound moved to |Q1|."""
    cert, ball, l = certify_no_roots_qp(f.Q, f.prime, config)
    return cert, ball, None if l is None else l + int_valuation(f.Q[-1], f.prime)


@st.composite
def _rational_maps(draw):
    """P/Q of degrees m, n with coefficients u p^e: leading exponents in
    -2..2 (equal half the time, so alpha = 0 is common), and the other
    exponents up to two above the leading one or, half the time, up to two
    below it, which makes P1 or Q1 non-integral."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(0, 2))
    m = draw(st.sampled_from([max(n - 1, 0), n, n + 1, n + 1, n + 2]))
    shift = draw(st.sampled_from([0, -2]))

    def poly(degree, lead):
        lower = [
            draw(st.integers(-9, 9)) * Fraction(p) ** (lead + shift + draw(st.integers(0, 2)))
            for _ in range(degree)
        ]
        return lower + [draw(st.sampled_from([1, -1, 2, 3])) * Fraction(p) ** lead]

    e_p = draw(st.integers(-2, 2))
    e_q = e_p if draw(st.booleans()) else draw(st.integers(-2, 2))
    return normalize_map(poly(m, e_p), poly(n, e_q), p)


def test_valuation_differences_agree_with_the_p1_q1_code():
    config = AnalysisConfig(descent_cap=12)
    seen = set()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_rational_maps(), st.sampled_from([MINIMALITY, ERGODICITY]))
    def check(f, goal):
        gate = _outcome(degree_gate, f, config)
        assert gate == _outcome(_old_degree_gate, f, config)
        assert global_qp._reduction_exponent(f) == _old_reduction_exponent(f)
        Q1 = _old_p1_q1(f)[1]
        assert _outcome(_new_certification, f, config) == _outcome(
            _old_certify_no_roots_qp, Q1, f.prime, config
        )
        witness = _outcome(_new_witness, f, goal, config)
        assert witness == _outcome(_old_witness, f, goal, config)
        seen.add(("integral P1, Q1", global_qp._leading_term_exponent(f) == 1))
        if isinstance(gate, GlobalGateReport):
            seen.add(("gate passed", gate.gate_passed))
        seen.add(("witness", witness[0]))

    check()
    assert {("integral P1, Q1", True), ("integral P1, Q1", False)} <= seen
    assert {("gate passed", True), ("gate passed", False)} <= seen
    assert {("witness", k) for k in ("InvariantSphere", "InvariantBall", "EscapingRegion")} <= seen
