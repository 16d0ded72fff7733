"""The ball walker against the loops it replaced.

``_old_descend``, ``_old_certified_profile`` and ``_old_root_free_report``
are copies of the descent that split every suspect ball, of the depth-first
per-ball profile and of the root-free profile that read every level-l ball,
on ``Fraction`` evaluations and ``Ball``s.  The walker must give the same
lower-bound exponent (or the same exception, message and data included) and
the same scaling report, with each ``Ball``-keyed profile read as the
multiset of its exponents.  The walker starts each maximal ball at its own
level, so it may certify a root in a coarser ball than the copy did.  The
copied descent ran on the domain rescaled into Z_p and named its balls
there; ``_old_lower_bound`` maps them back.
"""

from __future__ import annotations

import dataclasses
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_domains import level_balls
from test_kernel import children
from test_polynomials import (
    as_ints,
    norm_constant_exponent,
    padd,
    pmul,
    pscale,
    shift_variable,
    trimmed,
)

from padicdyn import cli
from padicdyn.config import AnalysisConfig
from padicdyn.domains import Ball, CompactDomain
from padicdyn.errors import (
    CertificateFailed,
    DecompositionTooLarge,
    DepthCapExceeded,
    HenselPreconditionFailed,
    PadicDynError,
    PoleInDomain,
    RootCertified,
)
from padicdyn.hensel import hensel_precondition
from padicdyn.maps import normalize_map
from padicdyn.padics import INF, fraction_valuation
from padicdyn.parsing import parse_domain
from padicdyn.polynomials import poly_eval, squarefree_part
from padicdyn.scaling import (
    BOUNDED_SCALING,
    CERTIFY_CAP,
    LOCALLY_1_LIPSCHITZ,
    LOCALLY_ISOMETRIC,
    LOCALLY_RHO_LIPSCHITZ,
    ScalingReport,
    _q_height_factor,
    _two_variable_height_factor,
    classify,
    lower_bound_bF,
)


def certifies_root_in_radius(F, p, seed, radius_exponent):
    """True when the lifting lemma proves a root within p^radius of the seed."""
    try:
        v_val, v_der = hensel_precondition(F, p, seed)
    except HenselPreconditionFailed:
        return False
    if v_val is INF:
        return True
    return v_der - v_val <= radius_exponent


def _rescaled(F, X):
    """Substitute x = y/p^M so the domain lands inside Z_p.

    Returns (G, X_scaled, shift) with G integral, X_scaled in Z_p, and
    |F(x)| = p^shift * |G(p^M x)| for x in X.
    """
    p = X.prime
    M = X.height_exponent()
    if M <= 0:
        return F, X, 0
    d = max(len(F) - 1, 0)
    G = pscale(shift_variable(F, p, -M), Fraction(p) ** (M * d))
    pm = Fraction(p) ** M
    Xs = CompactDomain.from_balls(
        Ball(X.base_level - M, b.key * pm, p) for b in level_balls(X, X.base_level)
    )
    return G, Xs, M * d


def _old_descend(F, X, config):
    p = X.prime
    t = min(X.base_level, -1)
    floor = t - config.descent_cap
    work = level_balls(X, t, config)
    while True:
        suspects = []
        for b in work:
            if fraction_valuation(poly_eval(F, b.key), p) >= -t:
                suspects.append(b)
        if not suspects:
            return t + 1
        for b in suspects:
            a = b.key
            if poly_eval(F, a) == 0:
                raise RootCertified(
                    f"{a} is a root of F inside the domain", ball=b
                )
            if fraction_valuation(a, p) >= 0 and certifies_root_in_radius(F, p, a, b.level):
                raise RootCertified(
                    f"a root of F provably lies in {b}", ball=b
                )
        if t - 1 < floor:
            raise DepthCapExceeded(
                f"|F| not separated from 0 after {config.descent_cap} levels; "
                f"suspect ball {suspects[0]}",
                level=t,
                suspect_ball=suspects[0],
            )
        t -= 1
        config.check_ball_budget(len(suspects) * p, "descent", t)
        work = [c for b in suspects for c in children(b)]


def _old_lower_bound(F, X, config):
    G, Xs, shift = _rescaled(F, X)
    try:
        # G's coefficients are integers
        sf = squarefree_part(as_ints(G))
        if len(sf) < len(G):
            _old_descend(sf, Xs, config)
        return _old_descend(G, Xs, config) + shift
    except RootCertified as exc:
        b = _in_domain(exc.ball, X)
        if str(exc).startswith("a root"):
            raise RootCertified(f"a root of F provably lies in {b}", ball=b) from None
        raise RootCertified(f"{b.key} is a root of F inside the domain", ball=b) from None
    except DepthCapExceeded as exc:
        b = _in_domain(exc.suspect_ball, X)
        raise DepthCapExceeded(
            f"|F| not separated from 0 after {config.descent_cap} levels; suspect ball {b}",
            level=b.level,
            suspect_ball=b,
        ) from None


def _in_domain(b, X):
    """The ball b of the rescaled domain, in X's own coordinates."""
    M = X.height_exponent()
    return Ball(b.level + M, b.key / b.prime**M, b.prime)


def _old_certified_profile(f, X, config):
    p = f.prime
    M = X.height_exponent()
    h_t = _two_variable_height_factor(f, M)
    start = min(X.base_level, -1)
    floor = start - CERTIFY_CAP
    exact, upper = {}, {}
    work = list(level_balls(X, start, config))
    # balls produced per level: the walker's budget
    produced = Counter()

    def split(b):
        produced[b.level - 1] += p
        config.check_ball_budget(produced[b.level - 1], "per-ball certification", b.level - 1)
        work.extend(children(b))

    while work:
        b = work.pop()
        if b.level < floor:
            raise DepthCapExceeded(
                f"per-ball certification exceeded depth cap at {b}",
                level=b.level,
                suspect_ball=b,
            )
        a = b.key
        t = b.level
        qa = poly_eval(f.Q, a)
        if qa == 0:
            raise PoleInDomain(f"denominator vanishes at {a}", ball=b)
        if fraction_valuation(a, p) >= 0 and certifies_root_in_radius(f.Q, p, a, t):
            raise PoleInDomain(f"denominator has a root inside {b}", ball=b)
        if t > norm_constant_exponent(f.Q, p, a):
            split(b)
            continue
        vq = int(fraction_valuation(qa, p))
        ta = poly_eval(f.t1, a)
        t1_norm_exp = -fraction_valuation(ta, p)
        lip_bound = max(t1_norm_exp, t + h_t)
        if ta != 0 and t <= norm_constant_exponent(f.t1, p, a):
            e = int(2 * vq + t1_norm_exp)
            if e > 0 or lip_bound <= -2 * vq:
                exact[b] = e
                continue
            split(b)
            continue
        if lip_bound <= -2 * vq:
            upper[b] = int(lip_bound + 2 * vq)
            continue
        split(b)

    exponents = list(exact.values()) + list(upper.values())
    max_exp = max(exponents) if exponents else 0
    if max_exp <= 0:
        kind, bound = LOCALLY_1_LIPSCHITZ, None
        transport = min((b.level for b in list(exact) + list(upper)), default=start)
    else:
        kind, bound = LOCALLY_RHO_LIPSCHITZ, max_exp
        transport = None
    return ScalingReport(
        classification=kind,
        classification_exponent=bound,
        radius_exponent=transport,
        b_q_exponent=None,
        b_t1_exponent=None,
        derivative_root_free=False,
        transport_level=transport,
        scalar_profile=exact,
        scalar_upper_bounds=upper,
    )


def _old_root_free_report(f, X, b_q, b_t1, config):
    p = f.prime
    M = X.height_exponent()
    l = min(b_q - _q_height_factor(f, M), b_t1 - _two_variable_height_factor(f, M)) - 1
    profile = {}
    for b in level_balls(X, l, config):
        ta = poly_eval(f.t1, b.key)
        if ta == 0:
            raise CertificateFailed(
                f"derivative vanishes at {b.key} despite the lower bound p^{b_t1} on |T1|"
            )
        # |f'(a)| = |T1(a)| / |Q(a)|^2
        profile[b] = int(
            2 * fraction_valuation(poly_eval(f.Q, b.key), p) - fraction_valuation(ta, p)
        )
    exponents = set(profile.values())
    if exponents <= {0}:
        kind, bound = LOCALLY_ISOMETRIC, None
    elif all(e <= 0 for e in exponents):
        kind, bound = LOCALLY_1_LIPSCHITZ, None
    else:
        kind, bound = BOUNDED_SCALING, max(exponents)
    return ScalingReport(
        classification=kind,
        classification_exponent=bound,
        radius_exponent=l,
        b_q_exponent=b_q,
        b_t1_exponent=b_t1,
        derivative_root_free=True,
        transport_level=l if kind in (LOCALLY_ISOMETRIC, LOCALLY_1_LIPSCHITZ) else None,
        scalar_profile=profile,
    )


def _old_classify(f, X, config):
    """``classify`` with the two copied walks in place of its own."""
    try:
        b_q = lower_bound_bF(f.Q, X, config)
    except RootCertified as exc:
        raise PoleInDomain(f"denominator has a root in the domain: {exc}", ball=exc.ball) from exc
    try:
        b_t1 = lower_bound_bF(f.t1, X, config)
    except (RootCertified, DepthCapExceeded) as exc:
        # the report records whether the descent certified a root of T1
        return dataclasses.replace(
            _old_certified_profile(f, X, config),
            derivative_root_certified=isinstance(exc, RootCertified),
        )
    return _old_root_free_report(f, X, b_q, b_t1, config)


def _outcome(run, *args):
    try:
        return run(*args)
    except PadicDynError as exc:
        # the named ball and level too
        return type(exc), str(exc), vars(exc)


@st.composite
def _domains(draw, p):
    kind = draw(st.sampled_from(["Zp", "B(0,1)", "B(0,2)", "sphere", "punctured"]))
    if kind == "sphere":
        return CompactDomain.sphere(draw(st.integers(-1, 2)), p)
    if kind == "punctured":
        hole = draw(st.integers(0, p**2 - 1))
        return parse_domain(f"Zp - B({hole},-2)", p)
    return parse_domain(kind, p)


@st.composite
def _factor(draw, p):
    """x - r, or (x - r)^2 - c p^k: a cluster of two roots near r whose
    separation from zero the descent has to find k levels down."""
    r = draw(st.integers(-p**3, p**3))
    linear = [-r, 1]
    if draw(st.booleans()):
        return linear
    c = draw(st.sampled_from([1, -1, 2, 3, 5]))
    return padd(pmul(linear, linear), [c * p ** draw(st.integers(1, 12))], -1)


@st.composite
def _descent_cases(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    X = draw(_domains(p))
    if draw(st.booleans()):
        F = trimmed(draw(st.lists(st.integers(-30, 30), min_size=1, max_size=5)))
    else:
        F = [draw(st.sampled_from([1, p, -2]))]
        for _ in range(draw(st.integers(1, 2))):
            F = pmul(F, draw(_factor(p)))
    if not F:
        F = [1]
    cap = draw(st.sampled_from([1, 2, 3, 5, 32]))
    # the budget only keeps the copied descent's cost in bounds
    return F, X, AnalysisConfig(descent_cap=cap, ball_cap=20_000)


def test_descent_agrees_with_the_descent_that_splits_every_suspect():
    seen = set()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_descent_cases())
    # 28 + 28x on Z_3 - B(3, -2): the walk names B(2, -1), which holds the
    # copy's ball around the root -1
    @example(([28, 28], parse_domain("Zp - B(3,-2)", 3),
              AnalysisConfig(descent_cap=5, ball_cap=20_000)))
    # x^2 - 51x - 472 on Z_5 - B(20, -2): the walk and the copy name balls
    # around different roots
    @example(([-472, -51, 1], parse_domain("Zp - B(20,-2)", 5),
              AnalysisConfig(descent_cap=2, ball_cap=20_000)))
    def check(case):
        want = _outcome(_old_lower_bound, *case)
        got = _outcome(lower_bound_bF, *case)
        if isinstance(want, tuple) and want[0] is DecompositionTooLarge:
            # the walker splits only balls that may hold a root, so it
            # meets the budget later, if at all
            return
        if (isinstance(got, tuple) and got[0] is RootCertified is want[0]
                and got[2]["ball"] != want[2]["ball"]):
            # the walk visits a coarse maximal ball at its own level, where
            # the copy started at the base level: it may certify a root in
            # a ball no finer than the copy's that holds the copy's root or,
            # with several roots, one that the copy certifies on its own
            F, X, config = case
            fine, coarse = want[2]["ball"], got[2]["ball"]
            assert coarse.level >= fine.level
            if coarse.contains(fine.key):
                seen.add("coarser root ball")
            else:
                alone = CompactDomain.ball(coarse.key, coarse.level, X.prime)
                root = _outcome(_old_lower_bound, F, alone, config)
                assert root[0] is RootCertified and coarse.contains(root[2]["ball"].key)
                seen.add("another root's ball")
            assert got[1] in (f"a root of F provably lies in {coarse}",
                              f"{coarse.key} is a root of F inside the domain")
            want = got
        assert got == want
        seen.add(int if isinstance(got, int) else got[0])

    check()
    assert {
        int, RootCertified, DepthCapExceeded, "coarser root ball", "another root's ball"
    } <= seen


def test_cap_error_names_the_suspect_the_old_descent_named():
    # ((x-6)^2 + 2^9)((x-1)^2 + 2^9) has no root in Q_2; at level -3 the
    # suspects are 2, 6 and 1 mod 8, and the walk meets 2 first (then 6,
    # then 1: digit by digit, lowest first), although 1 is the smallest key
    def cluster(r):
        return padd(pmul([-r, 1], [-r, 1]), [2**9])

    F, X = pmul(cluster(6), cluster(1)), CompactDomain.zp(2)
    config = AnalysisConfig(descent_cap=2)
    with pytest.raises(DepthCapExceeded, match=r"suspect ball B\(2, -3\)$") as caught:
        lower_bound_bF(F, X, config)
    assert caught.value.level == -3
    assert _outcome(lower_bound_bF, F, X, config) == _outcome(_old_lower_bound, F, X, config)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("k", [1, 2])
def test_a_root_beyond_zp_is_named_by_a_ball_that_holds_it(p, k):
    # r = u / p^k lies in B(0, 2) but not in Z_p; the descent walks the
    # domain's own balls, so the ball it names holds r itself (F * F
    # takes the squarefree pre-pass)
    X = CompactDomain.ball(0, 2, p)
    for u in (1, 2 * p - 1, 1 + p**3):
        r = Fraction(u, p**k)
        F = [-u, p**k]
        for G in (F, pmul(F, F)):
            with pytest.raises(RootCertified) as caught:
                lower_bound_bF(G, X)
            assert caught.value.ball.contains(r)
        with pytest.raises(PoleInDomain) as caught:
            classify(normalize_map([0, 1], F, p), X)
        assert caught.value.ball.contains(r)


def test_descent_errors_beyond_zp_name_domain_levels():
    # (4x - 1)^2 + 2^9 and (4x - 3)^2 + 2^9 have no root in Q_2; on B(0, 2)
    # the descent starts at level 1, and both level-0 balls are suspects
    def cluster(u):
        return [u * u + 2**9, -8 * u, 16]

    X = CompactDomain.ball(0, 2, 2)
    with pytest.raises(DepthCapExceeded, match=r"suspect ball B\(0, -2\)$") as caught:
        lower_bound_bF(cluster(1), X, AnalysisConfig(descent_cap=3))
    assert caught.value.level == caught.value.suspect_ball.level == -2
    with pytest.raises(DecompositionTooLarge, match=r"^descent at level -1 needs 4 balls \(cap 2\)$"):
        lower_bound_bF(pmul(cluster(1), cluster(3)), X, AnalysisConfig(ball_cap=2))
    with pytest.raises(DecompositionTooLarge, match=r"^decomposition at level 1 needs 2 balls"):
        lower_bound_bF(cluster(1), X, AnalysisConfig(ball_cap=1))


# small enough for the copied walks to finish quickly: on B(0,2), where
# the depth-first profile walks 10^5 balls for some quadratic denominators,
# yet above its 7^3 level -1 balls at p = 7; elsewhere, below the level-l
# decompositions that take the root-free copy tens of seconds
BALL_CAP_B02 = 400
BALL_CAP = 20_000

_small_fraction = st.builds(
    Fraction, st.integers(-9, 9), st.sampled_from([1, 1, 1, 2, 3, 9])
)


@st.composite
def _profile_cases(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    X = draw(_domains(p))
    pc = draw(st.lists(_small_fraction, min_size=2, max_size=4))
    qc = draw(st.lists(_small_fraction, min_size=1, max_size=3))
    if not any(qc):
        qc[-1] = Fraction(1)
    cap = BALL_CAP_B02 if X.height_exponent() == 2 else BALL_CAP
    return normalize_map(pc, qc, p), X, AnalysisConfig(ball_cap=cap)


def _coarse(report):
    """The copied walks' report with each profile read as the multiset of
    its exponents, as ``classify`` reports it."""
    return dataclasses.replace(
        report,
        scalar_profile=dict(Counter(report.scalar_profile.values())),
        scalar_upper_bounds=dict(Counter(report.scalar_upper_bounds.values())),
    )


def _settled_above_certificate(f, X, report):
    """Whether the copied profile split a ball on which |Q| and |T1| were
    already constant, to record an e <= 0 ball one level down."""
    start = min(X.base_level, -1)
    return any(
        e <= 0
        and b.level < start
        and min(norm_constant_exponent(f.Q, f.prime, b.key),
                norm_constant_exponent(f.t1, f.prime, b.key)) > b.level
        for b, e in report.scalar_profile.items()
    )


def test_profile_agrees_with_the_depth_first_profile():
    # classify on both routes against the copied walks: the root-free
    # profile that read every level-l ball, and the depth-first profile
    seen = set()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_profile_cases())
    # x/(1 + 2x^2) on B(0, 2) at p = 5: radius exponent -3, where X has
    # 3,125 balls, over the budget of 400
    @example((normalize_map([0, 1], [1, 0, 2], 5), CompactDomain.ball(0, 2, 5),
              AnalysisConfig(ball_cap=BALL_CAP_B02)))
    # the copy runs out of the budget of 400 on B(0, 2) at p = 5, and
    # finishes with 20 times that
    @example((normalize_map([-1, -1, 3], [7, -1, 3], 5), CompactDomain.ball(0, 2, 5),
              AnalysisConfig(ball_cap=BALL_CAP_B02)))
    # 3x + 2 on Z_3: the copy splits balls on which |Q| and |T1| are
    # already constant
    @example((normalize_map([2, 3], [1], 3), CompactDomain.zp(3),
              AnalysisConfig(ball_cap=BALL_CAP)))
    def check(case):
        f, X, config = case
        if not f.t1:
            return
        want = _outcome(_old_classify, *case)
        got = _outcome(classify, *case)
        stopped = (
            isinstance(want, tuple) and str(want[1]).startswith("per-ball certification")
        )
        if stopped and isinstance(got, ScalingReport) and want[0] is DecompositionTooLarge:
            # the walk settles norm-constant balls that the copy split
            # until it ran out of budget: compare if 20 times the budget
            # lets the copy finish
            want = _outcome(
                _old_classify, f, X, AnalysisConfig(ball_cap=20 * config.ball_cap)
            )
            stopped = isinstance(want, tuple)
            if not stopped:
                seen.add("rerun")
        root_free = isinstance(got, ScalingReport) and got.derivative_root_free
        l = got.radius_exponent if root_free else None
        if (root_free and isinstance(want, tuple) and want[0] is DecompositionTooLarge
                and want[1].startswith(f"decomposition at level {l} ")):
            # the copy decomposed X at the radius exponent l, which the walk
            # never does: compare with the copy given the budget for it, if
            # 20 times the budget holds level l
            if X.count(l) > 20 * config.ball_cap:
                assert sum(got.scalar_profile.values()) == X.count(l)
                return
            want = _outcome(_old_classify, f, X, AnalysisConfig(ball_cap=X.count(l)))
            seen.add("level l over the budget")
        elif stopped:
            # over a cap, the walk stops later than the copy, if at all
            # (it visits a subset of the copy's balls)
            if not isinstance(got, ScalingReport):
                assert got[0] is want[0]
            return
        if isinstance(want, ScalingReport):
            assert got == _coarse(want)
            seen.add((want.derivative_root_free, want.classification))
            if X.height_exponent() > 0:
                seen.add("beyond Z_p")
            if want.scalar_upper_bounds:
                seen.add("upper bound")
            if _settled_above_certificate(f, X, want):
                seen.add("settled above certificate")
        else:
            assert got == want

    check()
    assert {
        (True, LOCALLY_ISOMETRIC),
        (True, LOCALLY_1_LIPSCHITZ),
        (True, BOUNDED_SCALING),
        (False, LOCALLY_1_LIPSCHITZ),
        (False, LOCALLY_RHO_LIPSCHITZ),
        "beyond Z_p",
        "rerun",
        "upper bound",
        "settled above certificate",
        "level l over the budget",
    } <= seen, seen


@pytest.mark.parametrize(
    "argv,budget",
    [
        # the descent on Q1 = x^3+9x^2+8x-2/25 over B(0,3) used to split
        # every suspect ball (286k evaluations) before the failed gate printed
        (["-p", "5", "--map", "(-20x+20)/(25x^3+225x^2+200x-2)", "--domain", "Qp",
          "global"], 0.5),
        # two descents beyond Z_p, then the per-ball profile
        (["-p", "3", "--map", "(-14/9-3x-27x^2)/(1+27x)", "--domain", "B(0,2)",
          "classify"], 3.0),
        # BoundedScaling on 823,543 level -6 balls, which the walk settles
        # from 15 visits before the refusal
        (["-p", "7", "--map=(3/49)+-1*x+5*x^2+(3/2)*x^3", "--domain", "B(0,1)",
          "ergodic", "--depth", "-3"], 0.5),
        # 118,234 balls at level -6 and finer, which the walk settles from
        # 448 visits
        (["-p", "7", "--map", "(7x^3-4x^2+x-5)/(-4x^2+x-5)", "--domain", "B(0,2)",
          "classify"], 0.5),
    ],
)
def test_descent_beyond_zp_settles_root_free_balls_in_time(capsys, argv, budget):
    started = time.perf_counter()
    code = cli.main(argv)
    assert time.perf_counter() - started < budget
    out, err = capsys.readouterr()
    if "ergodic" in argv:
        assert code == 1
        assert err.endswith("(classification: BoundedScaling)\n")
    else:
        assert code == 0
        assert out
