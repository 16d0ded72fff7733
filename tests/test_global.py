import random
from fractions import Fraction

import pytest

from padicdyn import (
    CompactDomain,
    certify_no_roots_qp,
    decompose,
    degree_gate,
    fraction_valuation,
    global_check,
    global_obstruction,
    parse_map,
)
from padicdyn.config import AnalysisConfig
from padicdyn.errors import PoleInDomain
from padicdyn.global_qp import ERGODICITY, MINIMALITY, ReductionFailure
from padicdyn.maps import map_from_coefficients


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
        e = f.scalar_exponent(x)
        assert e == 0


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
