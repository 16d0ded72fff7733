import random
import re
from collections import Counter
from fractions import Fraction

import pytest
from test_domains import level_balls, sub_balls

import padicdyn.scaling
from padicdyn import (
    Analysis,
    CompactDomain,
    classify,
    fraction_valuation,
    lower_bound_bF,
    parse_domain,
    parse_map,
    poly_eval,
)
from padicdyn.cli import main
from padicdyn.config import AnalysisConfig
from padicdyn.errors import (
    CertificateFailed,
    DecompositionTooLarge,
    DepthCapExceeded,
    DerivativeRootInDomain,
    PoleInDomain,
    RootCertified,
)


def scalar_exponent(f, x):
    """Exponent e with |f'(x)| = p^e (-inf at derivative roots)."""
    return -fraction_valuation(f.derivative_value(x), f.prime)


def two_unit_balls():
    return parse_domain("B(2,-1) + B(5,-1)", 7)


def punctured_z3():
    return parse_domain("Zp - B(4,-2) - B(5,-2)", 3)


@pytest.mark.parametrize(
    "p,coeffs,domain_text,expected",
    [
        (7, [1, 0, 1], "B(2,-1) + B(5,-1)", 0),  # squares mod 7 miss -1
        (7, [0, 1], "B(2,-1) + B(5,-1)", 0),  # units have norm 1
        (3, [1, 0, 1], "Zp", 0),  # x^2 + 1 is a unit on Z_3
    ],
)
def test_lower_bound_examples(p, coeffs, domain_text, expected):
    X = parse_domain(domain_text, p)
    assert lower_bound_bF(coeffs, X) == expected


def test_lower_bound_is_sound_exhaustively():
    # enumerate two levels below the terminating level and compare
    cases = [
        (7, [1, 0, 1], two_unit_balls()),
        (3, [1, 2, 0, 2], punctured_z3()),
        (5, [1, 1, 1], CompactDomain.zp(5)),
        (3, [3], CompactDomain.zp(3)),  # constant of valuation 1
    ]
    for p, F, X in cases:
        b = lower_bound_bF(F, X)
        depth = min(b - 2, X.base_level - 2)
        for ball in level_balls(X, depth):
            assert fraction_valuation(poly_eval(F, ball.key), p) <= -b


def test_lower_bound_certifies_roots():
    # x^2 - 2 has a root in Z_7 (3^2 = 2 mod 7)
    with pytest.raises(RootCertified):
        lower_bound_bF([-2, 0, 1], CompactDomain.zp(7))


def test_lower_bound_refuses_coefficients_outside_the_polynomial_form():
    # coefficients are ints without trailing zeros; anything else was once
    # a ZeroDivisionError deep in the squarefree pass
    X = CompactDomain.zp(3)
    for F, message in [([1, 0, 1, 0], "trailing zeros"), ([Fraction(1, 2), 1], "integer"),
                       ([], "zero polynomial")]:
        with pytest.raises(ValueError, match=message):
            lower_bound_bF(F, X)


def test_lower_bound_depth_cap():
    # (x^2-2)^2 + 7^9 is root-free (odd valuation forces no solution) but
    # its norm floor sits 9 levels down, beyond a cap of 5
    F = [4 + 7**9, 0, -4, 0, 1]
    with pytest.raises(DepthCapExceeded):
        lower_bound_bF(F, CompactDomain.zp(7), AnalysisConfig(descent_cap=5))
    assert lower_bound_bF(F, CompactDomain.zp(7)) == -9


def test_lower_bound_certifies_multiple_root_via_squarefree_part():
    # (x+1)^2 at p=2: lifting alone cannot certify a double root, the
    # squarefree pre-pass can
    F = [1, 2, 1]
    with pytest.raises(RootCertified):
        lower_bound_bF(F, CompactDomain.zp(2))


def test_lower_bound_outside_unit_ball():
    # |x| = p^2 exactly on the sphere, found through rescaling
    S = CompactDomain.sphere(2, 3)
    assert lower_bound_bF([0, 1], S) == 2


@pytest.mark.parametrize(
    "p,map_text,domain_text,expected_l",
    [
        (7, "(x^2-1)/x", "B(2,-1) + B(5,-1)", -1),
        (3, "(2x^3 + x^2 + x)/(x^2 + 1)", "Zp - B(4,-2) - B(5,-2)", -2),
        (3, "(x^4 + x^3 + 2x^2 + 1)/(x^3 - x + 1)", "Zp", -1),
    ],
)
def test_scaling_radius_worked_instances(p, map_text, domain_text, expected_l):
    f = parse_map(map_text, p)
    X = parse_domain(domain_text, p)
    report = classify(f, X)
    assert report.radius_exponent == expected_l
    assert report.derivative_root_free


def test_radius_formula_fields():
    f = parse_map("(2x^3 + x^2 + x)/(x^2 + 1)", 3)
    report = classify(f, punctured_z3())
    assert report.derivative_root_free
    assert report.b_q_exponent == -1
    assert report.b_t1_exponent == -1
    assert report.radius_exponent == min(report.b_q_exponent, report.b_t1_exponent) - 1


@pytest.mark.parametrize(
    "p,map_text,domain_text,expected",
    [
        (7, "(x^2-1)/x", "B(2,-1) + B(5,-1)", "LocallyIsometric"),
        (3, "(2x^3 + x^2 + x)/(x^2 + 1)", "Zp - B(4,-2) - B(5,-2)", "Locally1Lipschitz"),
        (3, "3x", "Zp", "Locally1Lipschitz"),
    ],
)
def test_classify_examples(p, map_text, domain_text, expected):
    f = parse_map(map_text, p)
    X = parse_domain(domain_text, p)
    assert classify(f, X).classification == expected


def test_scaled_map_has_uniform_contraction_profile():
    f, X = parse_map("3x", 3), CompactDomain.zp(3)
    report = classify(f, X)
    balls = level_balls(X, report.radius_exponent)
    assert {scalar_exponent(f, b.key) for b in balls} == {-1}
    assert report.scalar_profile == {-1: len(balls)}


def test_expanding_map_is_bounded_scaling():
    # f(x) = x/3 is locally scaling with constant scalar 3
    report = classify(parse_map("x/3", 3), CompactDomain.zp(3))
    assert report.classification == "BoundedScaling"
    assert report.classification_exponent == 1
    assert report.transport_level is None


def test_pole_detected():
    with pytest.raises(PoleInDomain):
        classify(parse_map("(x+1)/x", 5), CompactDomain.zp(5))


def test_derivative_root_reported_by_radius():
    # f' = (x^2+2x... ) : T1 = 4x + 4 vanishes at -1
    f, X = parse_map("(x^2 + 2x)/2", 3), CompactDomain.zp(3)
    report = classify(f, X)
    assert not report.derivative_root_free
    assert report.b_t1_exponent is None
    with pytest.raises(DerivativeRootInDomain):
        Analysis(f, X).intrinsic_level


def test_classify_falls_back_on_derivative_roots():
    report = classify(parse_map("(x^2 + 2x)/2", 3), CompactDomain.zp(3))
    assert report.classification == "Locally1Lipschitz"
    assert not report.derivative_root_free
    assert report.transport_level is not None
    # the exact-root ball carries only an upper bound
    assert report.scalar_upper_bounds


def test_classify_handles_multiple_derivative_root():
    # T1 = 3(x-1)^2: a double root that lifting alone cannot certify
    report = classify(parse_map("x^3 - 3x^2 + 3x", 3), CompactDomain.zp(3))
    assert report.classification == "Locally1Lipschitz"
    assert not report.derivative_root_free


def _random_points_in_ball(ball, count, rng):
    p = ball.prime
    out = []
    for _ in range(count):
        # key + p^(-level) * (integer unit part)
        offset = rng.randint(0, p**6)
        out.append(ball.key + Fraction(p) ** (-ball.level) * offset)
    return out


@pytest.mark.parametrize(
    "p,map_text,domain_text",
    [
        (7, "(x^2-1)/x", "B(2,-1) + B(5,-1)"),
        (3, "(2x^3 + x^2 + x)/(x^2 + 1)", "Zp - B(4,-2) - B(5,-2)"),
        (3, "(x^4 + x^3 + 2x^2 + 1)/(x^3 - x + 1)", "Zp"),
    ],
)
def test_scaling_identity_on_radius_balls(p, map_text, domain_text):
    # |f(x) - f(y)| = |f'(a)| |x - y| exactly, for pairs in any level-l ball
    f = parse_map(map_text, p)
    X = parse_domain(domain_text, p)
    report = classify(f, X)
    assert report.derivative_root_free
    rng = random.Random(1234 + p)
    balls = level_balls(X, report.radius_exponent)
    pairs_per_ball = 1000 // len(balls) + 1
    checked = 0
    exponents = Counter()
    for ball in balls:
        e = scalar_exponent(f, ball.key)
        exponents[e] += 1
        done = 0
        while done < pairs_per_ball:
            x, y = _random_points_in_ball(ball, 2, rng)
            if x == y:
                continue
            lhs = fraction_valuation(f.eval(x) - f.eval(y), p)
            assert lhs == fraction_valuation(x - y, p) - e
            done += 1
        checked += done
    assert checked >= 1000
    assert exponents == report.scalar_profile


def test_profile_constant_per_ball():
    # |f'| takes a single value on each radius ball (sampled two levels down)
    f = parse_map("(2x^3 + x^2 + x)/(x^2 + 1)", 3)
    X = punctured_z3()
    report = classify(f, X)
    assert report.derivative_root_free
    exponents = Counter()
    for ball in level_balls(X, report.radius_exponent):
        e = scalar_exponent(f, ball.key)
        exponents[e] += 1
        for sub in sub_balls(ball, ball.level - 2):
            assert scalar_exponent(f, sub.key) == e
    assert exponents == report.scalar_profile


def test_descent_work_list_respects_the_ball_budget():
    # the descent for (x^2-2)^2 + 7^9 keeps two suspect balls per level, so
    # level -2 needs 14 balls: over a budget of 10
    F = [4 + 7**9, 0, -4, 0, 1]
    with pytest.raises(DecompositionTooLarge, match=r"^descent at level -2 needs 14 balls \(cap 10\)$"):
        lower_bound_bF(F, CompactDomain.zp(7), AnalysisConfig(ball_cap=10))


def test_per_ball_certification_respects_the_ball_budget():
    # (9x^2 - 6x - 6)/6 on Z_2 has a derivative root, so it is certified ball
    # by ball; |Q| and |T1| are constant on both level -1 balls, so the walk
    # settles them and fits a budget of 3
    f = parse_map("(9x^2 - 6x - 6)/6", 2)
    X = CompactDomain.zp(2)
    report = classify(f, X, AnalysisConfig(ball_cap=3))
    assert report == classify(f, X)
    assert (report.classification, report.transport_level) == ("Locally1Lipschitz", -2)
    # (8/5)x/(6x^2 + 7x - 4) on Z_5 splits two of its five level -1 balls,
    # so level -2 holds 10 balls: over a budget of 5
    f = parse_map("(8/5)x/(6x^2+7x-4)", 5)
    with pytest.raises(
        DecompositionTooLarge,
        match=r"^per-ball certification at level -2 needs 10 balls \(cap 5\)$",
    ):
        classify(f, CompactDomain.zp(5), AnalysisConfig(ball_cap=5))
    assert classify(f, CompactDomain.zp(5), AnalysisConfig(ball_cap=10)).classification == (
        "LocallyRhoLipschitz"
    )


def test_scaling_radius_certificate_failure_is_a_typed_error(monkeypatch, capsys):
    # x^3 + x on Z_3 is root-free with scaling radius exponent l = -1; a
    # probe that never finds |T1| constant leaves the level -1 balls
    # unsettled at the scaling radius, and the check must hold under
    # python -O too
    f, X = parse_map("x^3+x", 3), CompactDomain.zp(3)
    assert classify(f, X).radius_exponent == -1
    t1 = f.rescaled(X.height_exponent()).t1
    probe = padicdyn.scaling._ball_probe

    def t1_never_constant(G, p, y, k):
        v0, v1, v, exact = probe(G, p, y, k)
        return v0, v1, v, exact and tuple(G) != t1

    monkeypatch.setattr(padicdyn.scaling, "_ball_probe", t1_never_constant)
    message = "|Q| and |T1| are not certified constant on B(0, -1) at the scaling radius"
    with pytest.raises(CertificateFailed, match=re.escape(message)):
        classify(f, X)
    assert main(["-p", "3", "--map", "x^3+x", "--domain", "Zp", "classify"]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {message}\n")
