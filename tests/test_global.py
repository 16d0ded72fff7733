import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_scaling import scalar_exponent

from padicdyn import (
    CompactDomain,
    Polynomial,
    certify_no_roots_qp,
    decompose,
    degree_gate,
    fraction_valuation,
    global_check,
    global_obstruction,
    parse_map,
)
from padicdyn import cli, global_qp
from padicdyn.config import AnalysisConfig
from padicdyn.errors import DecompositionTooLarge, PadicDynError, PoleInDomain
from padicdyn.global_qp import ERGODICITY, MINIMALITY, WITNESS_DEPTH, ReductionFailure
from padicdyn.maps import RationalMap, map_from_coefficients, normalize_map


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
    for b in decompose(sphere, n - 1 - 2):
        x = b.key
        assert fraction_valuation(f.eval(x), 7) == fraction_valuation(x, 7)
        assert scalar_exponent(f, x) == 0


def test_root_certification_modes():
    from padicdyn.polynomials import Polynomial

    assert certify_no_roots_qp(Polynomial.of([1, 0, 1], 7), )[0] == "root-free"
    assert certify_no_roots_qp(Polynomial.of([0, 1], 7))[0] == "root"
    assert certify_no_roots_qp(Polynomial.of([-2, 0, 1], 7))[0] == "root"


def test_global_checks_quartic_yes():
    f = parse_map("(x^4 + x^3 + 2x^2 + 1)/(x^3 - x + 1)", 3)
    g = global_check(f)
    assert g.isometry == "Yes"
    assert g.measure_preserving == "Yes"
    assert g.forward_invariant_ball is True
    assert g.failure is None


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
        f = map_from_coefficients(pc, q, p)
        g = global_check(f)
        if g.compact_report is None or not g.compact_report.is_one_lipschitz:
            continue  # the equivalence is only claimed for 1-Lipschitz maps
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
    for b in decompose(sphere, -2):
        assert -fraction_valuation(f.eval(b.key), 7) == 1


def test_sphere_invariance_beyond_n():
    # every gate-passing map keeps the spheres at N, N+1, N+2 invariant
    for p, text in [(3, "(x^4 + x^3 + 2x^2 + 1)/(x^3 - x + 1)"), (7, "(x^2-1)/x")]:
        f = parse_map(text, p)
        n = degree_gate(f).N_exponent
        for k in range(3):
            sphere = CompactDomain.sphere(n + k, p)
            for b in decompose(sphere, n + k - 1 - 2):
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
            pole_free = certify_no_roots_qp(
                map_from_coefficients(pc, q, p).Q1
            )[0] == "root-free"
            if not pole_free:
                continue
            f = map_from_coefficients(pc, q, p)
        elif kind == "expand":
            f = map_from_coefficients([0, 0, rng.randint(1, 3) * p + 1], [1], p)
        else:
            f = map_from_coefficients([0, p], [1], p)  # alpha = 1
        gate = degree_gate(f)
        if gate.gate_passed:
            continue
        w = global_obstruction(f, ERGODICITY)
        assert w.verified, f"unverified witness for {f}"
        assert w.kind in ("InvariantBall", "EscapingRegion")
        produced += 1


def test_minimality_witness_needs_pole_free_denominator_for_contraction():
    with pytest.raises(PoleInDomain):
        global_obstruction(parse_map("1/x", 7), MINIMALITY)


def test_reduction_ball_beyond_unit_ball_isometry():
    # translation by 1/9 passes the gate with N = 3; the reduction ball
    # B(0,2) reaches outside Z_3 and the verdict is still decided exactly
    f = parse_map("x + 1/9", 3)
    gate = degree_gate(f)
    assert gate.N_exponent == 3
    g = global_check(f)
    assert g.isometry == "Yes" and g.measure_preserving == "Yes"
    assert g.compact_report.classification == "LocallyIsometric"


def test_reduction_ball_beyond_unit_ball_expansion_refused():
    # a fractional middle coefficient makes |f'(0)| = 9: not an isometry,
    # and the derivative also vanishes inside the reduction ball
    f = parse_map("(x^3 + x/9 + 1)/(x^2 + 1)", 3)
    gate = degree_gate(f)
    assert gate.gate_passed and gate.q1_certification == "root-free"
    assert gate.N_exponent == 3
    g = global_check(f)
    assert g.isometry == "No"
    assert g.compact_report.classification == "LocallyRhoLipschitz"


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
         map_from_coefficients([-3, -1, -4, 1], [6, -2, 1], 2), None),
    ],
)
def test_reduction_failure_reasons(failure, f, config):
    g = global_check(f) if config is None else global_check(f, config)
    assert g.failure is failure
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


def _within(lo, hi, e):
    return (lo is None or lo <= e) and (hi is None or e <= hi)


def _sampled_sweep(f, X, lo, hi, config):
    """The witness check before balls were settled: f at every ball centre
    WITNESS_DEPTH levels below X, in key order."""
    samples = decompose(X, X.base_level - WITNESS_DEPTH, config)
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
def _settling_cases(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    if draw(st.booleans()):
        X = CompactDomain.ball(0, draw(st.integers(-1, 1)), p)
    else:
        X = CompactDomain.sphere(draw(st.integers(-1, 2)), p)
    pc = draw(st.lists(_small_fraction, min_size=1, max_size=4))
    qc = draw(st.lists(_small_fraction, min_size=1, max_size=3))
    if not any(qc):
        qc[-1] = Fraction(1)
    q = Polynomial.of(qc, p)
    if draw(st.booleans()):
        # a pole at one of the sample centres
        keys = decompose(X, X.base_level - WITNESS_DEPTH)
        root = keys[draw(st.integers(0, len(keys) - 1))].key
        q = q * Polynomial.of([-root, 1], p)
    f = normalize_map(Polynomial.of(pc, p), q)
    lo = draw(st.none() | st.integers(-6, 6))
    hi = draw(st.none() | st.integers(-6, 6))
    cap = draw(st.sampled_from([1_000_000, 1_000_000, 1_000_000, 50]))
    return f, X, lo, hi, AnalysisConfig(ball_cap=cap)


def test_settled_check_agrees_with_the_sampled_sweep():
    seen, alphas, heights = set(), set(), set()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_settling_cases())
    def check(case):
        got = _outcome(global_qp._holds_on_samples, *case)
        assert got == _outcome(_sampled_sweep, *case)
        seen.add(got if isinstance(got, bool) else got[0])
        f, X = case[:2]
        alphas.add(f.alpha != 0)
        heights.add(X.height_exponent())

    check()
    assert seen == {True, False, PoleInDomain, DecompositionTooLarge}
    # the probes' rescaling offsets are exercised: alpha cancels from
    # v(Q) - v(P), and regions reach beyond Z_p
    assert alphas == {True, False} and max(heights) >= 2


def _shift_claims(monkeypatch):
    """Move every witness claim one level past its bound: a sphere claim to
    the next sphere, an image bound one level in, an escape bound one out."""
    real = global_qp._holds_on_samples

    def shifted(f, X, lo, hi, config):
        if lo == hi:
            lo = hi = lo + 1
        else:
            lo = None if lo is None else lo + 1
            hi = None if hi is None else hi - 1
        return real(f, X, lo, hi, config)

    monkeypatch.setattr(global_qp, "_holds_on_samples", shifted)


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


@pytest.mark.parametrize(
    "map_text,most",
    [("(-7+5*x^2+6*x^3)/(7)", 0), ("(3-2*x+3*x^2)/(2+7*x+2*x^2)", 20)],
)
def test_witness_evaluates_only_unsettled_centres(monkeypatch, capsys, map_text, most):
    # the sampled sweep made 43,218 and 2,401 evaluations
    real = RationalMap.eval
    calls = []

    def counted(self, x):
        calls.append(x)
        return real(self, x)

    monkeypatch.setattr(RationalMap, "eval", counted)
    assert cli.main(["-p", "7", f"--map={map_text}", "witness", "--goal", "ergodicity"]) == 0
    assert "verified at depth 4: ok" in capsys.readouterr().out
    assert len(calls) <= most
