"""Global analysis over all of Q_p.

Invertible local isometry and measure preservation on Q_p force alpha = 0
and deg P = deg Q + 1; when the gate passes, behaviour outside a computed
ball B(0, N-1) is rigid (spheres around 0 map into themselves), so the
global questions reduce to the compact ball.  Maps failing the gate carry
constructive obstruction witnesses: an invariant (or measure-distorting)
ball, or an escaping region; gate-passing maps always leave the sphere
S_{p^N}(0) invariant, which rules out global ergodicity and minimality.
Each witness's claim on |f| is proven on its whole region by one ball
walk: a ball is settled once |Q| is constant on it and the bounds on |P|
and |Q| put |f| within the claim; a key that breaks the claim refutes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

from .config import DEFAULT_CONFIG, AnalysisConfig
from .digraph import MEASURE_PRESERVING, UNDECIDED, Analysis
from .domains import Ball, CompactDomain, residue_ball
from .errors import (
    DepthCapExceeded,
    NotForwardInvariant,
    PoleInDomain,
    RootCertified,
)
from .maps import RationalMap
from .padics import INF, ceil_div, int_valuation
from .polynomials import (
    _ball_probe,
    _int_divexact,
    _is_int_polynomial,
    _int_gcd,
    _int_mul,
)
from .scaling import LOCALLY_ISOMETRIC, lower_bound_bF, walk

MINIMALITY = "Minimality"
ERGODICITY = "Ergodicity"


@dataclass(frozen=True)
class SphereRegion:
    """The set of points at norm exactly p^radius_exponent from 0."""

    radius_exponent: int
    prime: int

    def __str__(self):
        return f"S(0, {self.radius_exponent})"


@dataclass(frozen=True)
class GlobalGateReport:
    alpha: int
    m: int
    n: int
    gate_passed: bool
    q1_certification: str
    # the reduction ball is B(0, N-1); set once the gate passes
    N_exponent: int | None = None


@dataclass(frozen=True)
class ObstructionWitness:
    kind: str  # InvariantBall / EscapingRegion / InvariantSphere
    case_tag: str
    region: Ball | SphereRegion
    derived_levels: dict
    # the stated property is proven on every ball of the checked region,
    # or refuted at a point of it
    verified: bool
    # for contraction witnesses: f maps all of the region into this ball
    image_region: Ball | None = None
    # for escaping witnesses: spheres from this exponent up stay at norm
    # at least p^min_image_exponent
    sphere_exponent: int | None = None
    min_image_exponent: int | None = None


class ReductionFailure(Enum):
    """Why the reduction to the compact ball stopped short, with the
    (invertible local isometry, measure preservation) verdicts it implies."""

    DEGREE_GATE = ("degree gate failed", "No", "No")
    DENOMINATOR_ROOT = ("denominator has a root in Q_p", "No", "No")
    DENOMINATOR_UNDECIDED = ("denominator root-freeness undecided", "Undecided", "Undecided")
    NOT_ONE_LIPSCHITZ = ("not locally 1-Lipschitz on the reduction ball", "No", "Undecided")
    BALL_NOT_INVARIANT = ("reduction ball is not forward invariant", "No", "No")

    def __init__(self, text: str, isometry: str, measure_preserving: str):
        self.text = text
        self.isometry = isometry
        self.measure_preserving = measure_preserving


@dataclass(frozen=True)
class GlobalVerdict:
    """Both global questions, answered from one reduction.  Verdicts are
    Yes / No / Undecided, each with its reason."""

    gate: GlobalGateReport
    isometry: str
    isometry_reason: str
    measure_preserving: str
    measure_preserving_reason: str
    # None when the reduction stopped before the ball was built
    forward_invariant_ball: bool | None = None


def lemma_n_bound(F: Sequence[int], p: int) -> int:
    """Smallest positive N with p^N exceeding every non-leading coefficient
    norm of F / lc, so that |F(x)| = |lc| |x|^deg whenever |x| >= p^N: the
    coefficient F_i / lc has valuation v(F_i) - v(lc)."""
    best = 1
    if F:
        lead = int_valuation(F[-1], p)
        for c in F[:-1]:
            if c:
                best = max(best, 1 + lead - int_valuation(c, p))
    return best


def certify_no_roots_qp(
    F: Sequence[int], p: int, config: AnalysisConfig = DEFAULT_CONFIG
) -> tuple[str, Ball | None, int | None]:
    """('root-free' | 'root' | 'unknown', witness ball if a root was found,
    exponent l with |F(x)| >= p^l on all of Q_p if F is root-free), for
    integer coefficients F (lowest degree first, no trailing zeros).

    Outside the coefficient-bound radius the norm is |lc| |x|^deg, so roots
    can only live in a compact ball, where the descent either separates |F|
    from zero or certifies a root.
    """
    if not _is_int_polynomial(F):
        raise ValueError("root certification requires integer coefficients without trailing zeros")
    if not F:
        return "root", None, None
    k = int_valuation(F[-1], p)
    if len(F) == 1:
        return "root-free", None, -k
    n0 = lemma_n_bound(F, p)
    # the descent runs on F / p^v with v the least coefficient valuation,
    # whose norms are p^v times F's
    v = min(int_valuation(c, p) for c in F if c)
    pv = p**v
    try:
        inside = lower_bound_bF(tuple(c // pv for c in F), CompactDomain.ball(0, n0, p), config)
    except RootCertified as exc:
        return "root", exc.ball, None
    except DepthCapExceeded:
        return "unknown", None, None
    return "root-free", None, min(inside - v, (len(F) - 1) * n0 - k)


def degree_gate(
    f: RationalMap, config: AnalysisConfig = DEFAULT_CONFIG
) -> GlobalGateReport:
    """Necessary condition for global invertible isometry / measure
    preservation: alpha = 0 and deg P = deg Q + 1; with the reduction
    exponent N when it holds."""
    cert, _, _ = certify_no_roots_qp(f.Q, f.prime, config)
    passed = f.alpha == 0 and f.m == f.n + 1
    return GlobalGateReport(
        f.alpha, f.m, f.n, passed, cert, _reduction_exponent(f) if passed else None
    )


def _leading_term_exponent(f: RationalMap) -> int:
    """N0 past which P and Q have the norms of their leading terms."""
    return max(lemma_n_bound(f.P, f.prime), lemma_n_bound(f.Q, f.prime))


def _reduction_exponent(f: RationalMap) -> int:
    """Smallest positive N past which norms behave like leading terms:
    p^N exceeds every P1 and Q1 coefficient norm and both derivative parts
    scale as |x|^(deg).  Integral P1, Q1 (N0 = 1) always give N = 1."""
    n = _leading_term_exponent(f)
    if n > 1:
        # the numerator T1 and denominator Q^2 of f', common factor cleared;
        # lemma_n_bound reads valuations relative to the leading one
        num, den = list(f.t1), _int_mul(f.Q, f.Q)
        g = _int_gcd(num, den)
        if len(g) > 1:
            num, den = _int_divexact(num, g), _int_divexact(den, g)
        n = max(n, lemma_n_bound(num, f.prime), lemma_n_bound(den, f.prime))
    return n


def global_check(
    f: RationalMap,
    config: AnalysisConfig = DEFAULT_CONFIG,
    gate: GlobalGateReport | None = None,
) -> GlobalVerdict:
    """Is f an invertible local isometry on Q_p, and is it measure
    preserving there?

    Gate-passing maps leave every sphere past the reduction radius
    invariant and act on it as invertible local isometries, so both
    questions reduce to B(0, N-1): its forward invariance, its
    classification, and the cycle criterion on it (``Analysis.mp``, which
    runs no intrinsic-level search).  For locally 1-Lipschitz maps the two
    properties are equivalent.  ``gate`` is ``degree_gate(f, config)`` when
    the caller has already computed it.
    """
    if gate is None:
        gate = degree_gate(f, config)
    if not gate.gate_passed:
        return _failed(gate, ReductionFailure.DEGREE_GATE)
    if gate.q1_certification == "root":
        return _failed(gate, ReductionFailure.DENOMINATOR_ROOT)
    if gate.q1_certification == "unknown":
        return _failed(gate, ReductionFailure.DENOMINATOR_UNDECIDED)
    ball_domain = CompactDomain.ball(0, gate.N_exponent - 1, f.prime)
    analysis = Analysis(f, ball_domain, config)
    report = analysis.report
    if not report.is_one_lipschitz:
        return _failed(gate, ReductionFailure.NOT_ONE_LIPSCHITZ)
    try:
        analysis.digraph(analysis.transport_level)
    except NotForwardInvariant:
        return _failed(gate, ReductionFailure.BALL_NOT_INVARIANT, False)
    mp = analysis.mp()
    if mp.kind == UNDECIDED:
        iso = mp_verdict = ("Undecided", "cycle criterion undecided")
    elif mp.kind == MEASURE_PRESERVING:
        iso = ("Yes", "reduction ball is invariant, isometric and invertible")
        mp_verdict = (
            "Yes",
            "measure preserving on the invariant reduction ball "
            "(equivalent to invertible local isometry here)",
        )
    else:
        iso = ("No", "not invertible on the reduction ball")
        mp_verdict = ("No", "not measure preserving on the reduction ball")
    # an undecided scan leaves the isometry undecided unless |f'| < 1 is
    # certified on some ball: an exponent below 0 in the scalar profile or
    # its upper bounds, or a root of T1 that classifying the ball certified
    exponents = report.scalar_profile.keys() | report.scalar_upper_bounds.keys()
    contracts = min(exponents, default=0) < 0 or report.derivative_root_certified
    if report.classification != LOCALLY_ISOMETRIC and (mp.kind != UNDECIDED or contracts):
        iso = (
            "No",
            f"not locally isometric on the reduction ball "
            f"(classification: {report.classification})",
        )
    return GlobalVerdict(gate, *iso, *mp_verdict, True)


def _failed(
    gate: GlobalGateReport,
    failure: ReductionFailure,
    invariant: bool | None = None,
) -> GlobalVerdict:
    return GlobalVerdict(
        gate, failure.isometry, failure.text, failure.measure_preserving, failure.text,
        invariant,
    )


def global_obstruction(
    f: RationalMap,
    goal: str,
    config: AnalysisConfig = DEFAULT_CONFIG,
) -> ObstructionWitness:
    """A concrete witness that f is not minimal (resp. not both measure
    preserving and ergodic) on Q_p.

    Minimality: an invariant ball around 0 or a region that orbits never
    leave.  Ergodicity: for gate-passing maps the invariant sphere
    S_{p^N}(0); otherwise a measure-distorting ball or escaping region.
    Before the witness is returned its claim on |f| is proven on the whole
    region, ball by ball: a ball is settled once |Q| is constant on it and
    the probes' bounds on |P| and |Q| put |f| within the claim there.
    """
    if goal not in (MINIMALITY, ERGODICITY):
        raise ValueError(f"unknown goal {goal!r}")
    alpha, m, n = f.alpha, f.m, f.n
    if goal == ERGODICITY and alpha == 0 and m == n + 1:
        return _sphere_witness(f, config)
    strict = goal == ERGODICITY  # measure distortion needs strict scaling
    if m <= n or (m == n + 1 and alpha > 0):
        return _contraction_witness(f, strict, config)
    # now m > n with alpha <= 0, or m - n >= 2 with alpha > 0
    return _escape_witness(f, strict, config)


def _holds_on_region(
    f: RationalMap, X: CompactDomain, lo: int | None, hi: int | None,
    config: AnalysisConfig,
) -> bool:
    """Whether lo <= -v(f(x)) <= hi (``None`` for an open side) for every
    x in X, proven ball by ball.

    On the ball of residue y, -v(f) = v(Q) - v(P) + M exactly at the key
    y / p^M, and at most v(Q) - (the probe's lower bound on v(P)) + M over
    the ball once |Q| is constant there.  Only such balls settle, so none
    holds a pole: under an upper bound alone once that maximum is within
    it, otherwise once |P| is constant too.  Such a ball whose key breaks
    the claim refutes it; any other ball is split.  A key where Q vanishes
    raises ``PoleInDomain``, and a ball unsettled ``descent_cap`` levels
    below X's base level raises ``DepthCapExceeded``.
    """
    p = f.prime
    floor = X.base_level - config.descent_cap
    form = f.rescaled(X.height_exponent())
    M, Ph, Qh = form.M, form.num, form.den
    refuted = False

    def within(e) -> bool:
        return (lo is None or lo <= e) and (hi is None or e <= hi)

    def visit(y: int, t: int) -> bool:
        nonlocal refuted
        if refuted:
            return False
        vq, _, _, cq = _ball_probe(Qh, p, y, M - t)
        if vq == INF:
            raise PoleInDomain(f"denominator vanishes at {Fraction(y, p**M)}")
        if cq:
            # v(P(a)) and v(Q(a)) are v(Ph(y)) - o - M and v(Qh(y)) - o
            vp, _, least, cp = _ball_probe(Ph, p, y, M - t)
            if not within(vq - vp + M):
                refuted = True
                return False
            if cp or (lo is None and within(vq - least + M)):
                return False
        if t == floor:
            b = residue_ball(y, t, M, p)
            raise DepthCapExceeded(
                f"witness check not settled after {config.descent_cap} levels; "
                f"unsettled ball {b}", level=t, suspect_ball=b,
            )
        return True

    walk(X, X.base_level, visit, config, "witness check")
    return not refuted


def _sphere_witness(f: RationalMap, config: AnalysisConfig) -> ObstructionWitness:
    p = f.prime
    N = _reduction_exponent(f)
    return ObstructionWitness(
        kind="InvariantSphere",
        case_tag="invariant-sphere",
        region=SphereRegion(N, p),
        derived_levels={"N": N},
        verified=_holds_on_region(f, CompactDomain.sphere(N, p), N, N, config),
    )


def _coefficient_peak(f: RationalMap, N: int) -> int:
    """max over i of (N*i - v(a_i)) for the P1 coefficients
    a_i = P_i / p^v(lead P): exponent bound for |P1| on the ball of radius
    p^N."""
    peak = 0
    if f.P:
        lead = int_valuation(f.P[-1], f.prime)
        for i, c in enumerate(f.P):
            if c:
                peak = max(peak, N * i - int_valuation(c, f.prime) + lead)
    return peak


def _contraction_witness(
    f: RationalMap, strict: bool, config: AnalysisConfig
) -> ObstructionWitness:
    alpha, m, n = f.alpha, f.m, f.n
    n0 = _leading_term_exponent(f)
    cert, ball, l = certify_no_roots_qp(f.Q, f.prime, config)
    if cert == "root":
        raise PoleInDomain(
            "the invariant-ball witness needs a pole-free denominator", ball=ball
        )
    if cert == "unknown":
        raise DepthCapExceeded(
            "the invariant-ball witness needs a pole-free denominator: its root "
            f"descent hit the depth cap {config.descent_cap}"
        )
    # |Q1| >= p^l0 from |Q| >= p^l, as Q1 = Q / p^v(lead Q)
    l0 = l + int_valuation(f.Q[-1], f.prime)
    if m == n + 1:
        N = n0
    else:
        # past p^N the map does not expand: p^-alpha |x|^(m-n) <= |x|
        need = -alpha if not strict else -alpha + 1
        N = max(n0, ceil_div(need, n + 1 - m))
    l1 = -alpha - l0 + _coefficient_peak(f, N)
    n1 = max(N, l1)
    if strict:
        region = Ball.containing(0, n1 + 1, f.prime)
        image = Ball.containing(0, n1, f.prime)
        tag = "measure-distorting-ball"
    else:
        region = image = Ball.containing(0, n1, f.prime)
        tag = "invariant-ball"
    return ObstructionWitness(
        kind="InvariantBall",
        case_tag=tag,
        region=region,
        derived_levels={"N0": n0, "N": N, "l0": l0, "l1": l1, "N1": n1},
        verified=_holds_on_region(
            f, CompactDomain.ball(0, region.level, f.prime), None, image.level, config
        ),
        image_region=image,
    )


def _escape_witness(
    f: RationalMap, strict: bool, config: AnalysisConfig
) -> ObstructionWitness:
    alpha, m, n = f.alpha, f.m, f.n
    p = f.prime
    n0 = _leading_term_exponent(f)
    if m - n == 1:
        # alpha <= 0 here, so |f(x)| = p^-alpha |x| >= |x|
        N = n0
    else:
        need = alpha if not strict else alpha + 1
        N = max(n0, ceil_div(need, m - n - 1))
    sphere_exp = N + 1 if strict else N
    min_image = sphere_exp + 1 if strict else sphere_exp
    return ObstructionWitness(
        kind="EscapingRegion",
        case_tag="escaping-orbit" if not strict else "measure-distorting-escape",
        region=Ball.containing(0, sphere_exp - 1, p),
        derived_levels={"N0": n0, "N": N},
        verified=all(
            _holds_on_region(f, CompactDomain.sphere(sphere_exp + k, p), min_image, None, config)
            for k in range(3)
        ),
        sphere_exponent=sphere_exp,
        min_image_exponent=min_image,
    )
