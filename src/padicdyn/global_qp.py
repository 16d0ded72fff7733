"""Global analysis over all of Q_p.

Invertible local isometry and measure preservation on Q_p force alpha = 0
and deg P1 = deg Q1 + 1; when the gate passes, behaviour outside a computed
ball B(0, N-1) is rigid (spheres around 0 map into themselves), so the
global questions reduce to the compact ball.  Maps failing the gate carry
constructive obstruction witnesses: an invariant (or measure-distorting)
ball, or an escaping region; gate-passing maps always leave the sphere
S_{p^N}(0) invariant, which rules out global ergodicity and minimality.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction

from .config import DEFAULT_CONFIG, AnalysisConfig
from .digraph import MEASURE_PRESERVING, UNDECIDED, Analysis, MPVerdict
from .domains import Ball, CompactDomain, decompose
from .errors import (
    DepthCapExceeded,
    NotForwardInvariant,
    PoleInDomain,
    RootCertified,
)
from .maps import RationalMap
from .padics import ceil_div, fraction_valuation
from .polynomials import Polynomial, poly_divexact, poly_gcd
from .scaling import LOCALLY_ISOMETRIC, ScalingReport, lower_bound_bF

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
    prime: int
    alpha: int
    m: int
    n: int
    gate_passed: bool
    q1_certification: str = "unchecked"
    N_exponent: int | None = None
    l0_exponent: int | None = None
    forward_invariant_ball: bool | None = None
    derived_levels: dict | None = None


@dataclass(frozen=True)
class ObstructionWitness:
    kind: str  # InvariantBall / EscapingRegion / InvariantSphere
    case_tag: str
    region: Ball | SphereRegion
    # for contraction witnesses: samples of the region must land here
    image_region: Ball | None = None
    # for escaping witnesses: spheres from this exponent up stay at norm
    # at least p^min_image_exponent
    sphere_exponent: int | None = None
    min_image_exponent: int | None = None
    derived_levels: dict | None = None
    checked_depth: int | None = None
    verified: bool = False


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
    failure: ReductionFailure | None = None
    compact_report: ScalingReport | None = None
    compact_mp: MPVerdict | None = None


def lemma_n_bound(F: Polynomial) -> int:
    """Smallest positive N with p^N exceeding every non-leading coefficient
    norm, so that |F(x)| = |lc| |x|^deg whenever |x| >= p^N."""
    best = 1
    for i in range(0, F.degree):
        c = F.coefficient(i)
        if c == 0:
            continue
        v = int(fraction_valuation(c, F.prime))
        if v < 0:
            best = max(best, 1 - v)
    return best


def unit_normalized(F: Polynomial) -> tuple[int, Polynomial]:
    """(k, G) with F = p^k G and G of unit leading coefficient."""
    v = int(fraction_valuation(F.leading_coefficient, F.prime))
    return v, F.scale(Fraction(F.prime) ** (-v))


def certify_no_roots_qp(
    F: Polynomial, config: AnalysisConfig = DEFAULT_CONFIG
) -> tuple[str, Ball | None]:
    """('root-free' | 'root' | 'unknown', witness ball if a root was found).

    Outside the coefficient-bound radius the norm is |x|^deg, so roots can
    only live in a compact ball, where the descent either separates |F| from
    zero or certifies a root.
    """
    if F.is_zero():
        return "root", None
    if F.degree == 0:
        return "root-free", None
    _, G = unit_normalized(F)
    n0 = lemma_n_bound(G)
    ball = CompactDomain.ball(0, n0, F.prime)
    cleared = _cleared_integral(F)
    try:
        lower_bound_bF(cleared, ball, config)
    except RootCertified as exc:
        return "root", exc.ball
    except DepthCapExceeded:
        return "unknown", None
    return "root-free", None


def _cleared_integral(F: Polynomial) -> Polynomial:
    """Scale by a power of p so every coefficient is integral."""
    v = F.min_coefficient_valuation()
    if v >= 0:
        return F
    return F.scale(Fraction(F.prime) ** (-int(v)))


def degree_gate(
    f: RationalMap, config: AnalysisConfig = DEFAULT_CONFIG
) -> GlobalGateReport:
    """Necessary condition for global invertible isometry / measure
    preservation: alpha = 0 and deg P1 = deg Q1 + 1."""
    cert, _ = certify_no_roots_qp(f.Q1, config)
    return GlobalGateReport(
        prime=f.prime,
        alpha=f.alpha,
        m=f.m,
        n=f.n,
        gate_passed=(f.alpha == 0 and f.m == f.n + 1),
        q1_certification=cert,
    )


def _derivative_pair(f: RationalMap) -> tuple[Polynomial, Polynomial]:
    """Unit-leading numerator and denominator of f' (common factor cleared)."""
    num = f.t1
    den = f.Q1 * f.Q1
    g = poly_gcd(num, den)
    if g.degree > 0:
        num = poly_divexact(num, g)
        den = poly_divexact(den, g)
    _, p2 = unit_normalized(num)
    _, q2 = unit_normalized(den)
    return p2, q2


def compute_N(
    f: RationalMap, gate: GlobalGateReport | None = None,
    config: AnalysisConfig = DEFAULT_CONFIG,
) -> GlobalGateReport:
    """Smallest positive N past which norms behave like leading terms:
    p^N exceeds every P1 and Q1 coefficient norm and both derivative parts
    scale as |x|^(deg).  Integral P1, Q1 always give N = 1."""
    if gate is None:
        gate = degree_gate(f, config)
    if not gate.gate_passed:
        raise ValueError("N is defined only once the degree gate passes")
    n = 1
    for c in f.P1.coefficients + f.Q1.coefficients:
        v = fraction_valuation(c, f.prime)
        if v < 0:
            n = max(n, 1 - int(v))
    if not (f.P1.is_integral() and f.Q1.is_integral()):
        p2, q2 = _derivative_pair(f)
        n = max(n, lemma_n_bound(p2), lemma_n_bound(q2))
    l0 = None
    if gate.q1_certification == "root-free":
        l0 = _q1_lower_bound_exponent(f, config)
    return replace(gate, N_exponent=n, l0_exponent=l0)


def _q1_lower_bound_exponent(f: RationalMap, config: AnalysisConfig) -> int:
    """Exponent l0 with |Q1(x)| >= p^l0 on all of Q_p (root-free Q1)."""
    _, q1u = unit_normalized(f.Q1)
    n0 = lemma_n_bound(q1u)
    shift = int(fraction_valuation(f.Q1.leading_coefficient, f.prime))  # 0 by normalization
    if f.Q1.degree == 0:
        return shift
    inside = lower_bound_bF(
        _cleared_integral(f.Q1), CompactDomain.ball(0, n0, f.prime), config
    )
    clear = f.Q1.min_coefficient_valuation()
    if clear < 0:
        # clearing multiplied Q1 by p^(-clear), shrinking norms by p^clear
        inside -= int(clear)
    outside = f.n * n0
    return min(inside, outside)


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
    classification, and the cycle criterion on it.  For locally 1-Lipschitz
    maps the two properties are equivalent.  ``gate`` is the degree gate
    (with N once it passes) when the caller has already computed it.
    """
    if gate is None:
        gate = degree_gate(f, config)
        if gate.gate_passed:
            gate = compute_N(f, gate, config)
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
        return _failed(gate, ReductionFailure.NOT_ONE_LIPSCHITZ, report)
    try:
        analysis.digraph(analysis.transport_level)
    except NotForwardInvariant:
        gate = replace(gate, forward_invariant_ball=False)
        return _failed(gate, ReductionFailure.BALL_NOT_INVARIANT, report)
    gate = replace(gate, forward_invariant_ball=True)
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
    if report.classification != LOCALLY_ISOMETRIC:
        iso = (
            "No",
            f"not locally isometric on the reduction ball "
            f"(classification: {report.classification})",
        )
    return GlobalVerdict(gate, *iso, *mp_verdict, None, report, mp)


def _failed(
    gate: GlobalGateReport, failure: ReductionFailure, report: ScalingReport | None = None
) -> GlobalVerdict:
    return GlobalVerdict(
        gate, failure.isometry, failure.text, failure.measure_preserving, failure.text,
        failure, report,
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
    The stated property is verified at sampled representatives before the
    witness is returned.
    """
    if goal not in (MINIMALITY, ERGODICITY):
        raise ValueError(f"unknown goal {goal!r}")
    alpha, m, n = f.alpha, f.m, f.n
    if goal == ERGODICITY and alpha == 0 and m == n + 1:
        gate = compute_N(f, None, config)
        N = gate.N_exponent
        witness = ObstructionWitness(
            kind="InvariantSphere",
            case_tag="invariant-sphere",
            region=SphereRegion(N, f.prime),
            derived_levels={"N": N},
        )
        return _verify_witness(f, witness, config)
    strict = goal == ERGODICITY  # measure distortion needs strict scaling
    if m <= n or (m == n + 1 and alpha > 0):
        return _contraction_witness(f, strict, config)
    # now m > n with alpha <= 0, or m - n >= 2 with alpha > 0
    return _escape_witness(f, strict, config)


def _coefficient_peak(f: RationalMap, N: int) -> int:
    """max over i of (N*i - v(a_i)) for the P1 coefficients: exponent bound
    for |P1| on the ball of radius p^N."""
    peak = 0
    for i, c in enumerate(f.P1.coefficients):
        if c != 0:
            peak = max(peak, N * i - int(fraction_valuation(c, f.prime)))
    return peak


def _contraction_witness(
    f: RationalMap, strict: bool, config: AnalysisConfig
) -> ObstructionWitness:
    alpha, m, n = f.alpha, f.m, f.n
    _, q1u = unit_normalized(f.Q1)
    n0 = lemma_n_bound(q1u)
    if not f.P1.is_zero():
        n0 = max(n0, lemma_n_bound(unit_normalized(f.P1)[1]))
    cert, ball = certify_no_roots_qp(f.Q1, config)
    if cert != "root-free":
        raise PoleInDomain(
            "the invariant-ball witness needs a pole-free denominator", ball=ball
        )
    if m == n + 1:
        N = n0
    else:
        # past p^N the map does not expand: p^-alpha |x|^(m-n) <= |x|
        need = -alpha if not strict else -alpha + 1
        N = max(n0, ceil_div(need, n + 1 - m))
    l0 = _q1_lower_bound_exponent(f, config)
    l1 = -alpha - l0 + _coefficient_peak(f, N)
    if strict:
        n1 = max(N, l1)
        region = Ball.containing(0, n1 + 1, f.prime)
        image = Ball.containing(0, n1, f.prime)
        tag = "measure-distorting-ball"
    else:
        n1 = max(N, l1)
        region = Ball.containing(0, n1, f.prime)
        image = region
        tag = "invariant-ball"
    witness = ObstructionWitness(
        kind="InvariantBall",
        case_tag=tag,
        region=region,
        image_region=image,
        derived_levels={"N0": n0, "N": N, "l0": l0, "l1": l1, "N1": n1},
    )
    return _verify_witness(f, witness, config)


def _escape_witness(
    f: RationalMap, strict: bool, config: AnalysisConfig
) -> ObstructionWitness:
    alpha, m, n = f.alpha, f.m, f.n
    n0 = max(
        lemma_n_bound(unit_normalized(f.P1)[1]),
        lemma_n_bound(unit_normalized(f.Q1)[1]),
    )
    if m - n == 1:
        # alpha <= 0 here, so |f(x)| = p^-alpha |x| >= |x|
        N = n0
    else:
        need = alpha if not strict else alpha + 1
        N = max(n0, ceil_div(need, m - n - 1))
    sphere_exp = N + 1 if strict else N
    min_image = sphere_exp + 1 if strict else sphere_exp
    witness = ObstructionWitness(
        kind="EscapingRegion",
        case_tag="escaping-orbit" if not strict else "measure-distorting-escape",
        region=Ball.containing(0, sphere_exp - 1, f.prime),
        sphere_exponent=sphere_exp,
        min_image_exponent=min_image,
        derived_levels={"N0": n0, "N": N},
    )
    return _verify_witness(f, witness, config)


def _verify_witness(
    f: RationalMap, w: ObstructionWitness, config: AnalysisConfig
) -> ObstructionWitness:
    depth = config.witness_depth
    ok = True
    if w.kind == "InvariantSphere":
        N = w.region.radius_exponent
        sphere = CompactDomain.sphere(N, f.prime)
        for b in decompose(sphere, N - 1 - depth, config):
            if -fraction_valuation(f.eval(b.key), f.prime) != N:
                ok = False
                break
    elif w.kind == "InvariantBall":
        dom = CompactDomain.ball(0, w.region.level, f.prime)
        for b in decompose(dom, w.region.level - depth, config):
            if not w.image_region.contains(f.eval(b.key)):
                ok = False
                break
    else:  # EscapingRegion
        for k in range(3):
            sphere = CompactDomain.sphere(w.sphere_exponent + k, f.prime)
            lvl = w.sphere_exponent + k - 1 - depth
            for b in decompose(sphere, lvl, config):
                if -fraction_valuation(f.eval(b.key), f.prime) < w.min_image_exponent:
                    ok = False
                    break
            if not ok:
                break
    return replace(w, checked_depth=depth, verified=ok)
