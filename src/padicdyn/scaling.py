"""Certified lower bounds, uniform scaling radius, and classification.

``walk`` visits a tree of balls level by level, settling or splitting each;
the descent, the per-ball profile and ``global_qp``'s witness check run on it.
``lower_bound_bF`` walks the domain, rescaled into Z_p first so that F is
integral and 1-Lipschitz there: a level-t ball is a suspect when
v(F(key)) >= -t, and p^d bounds |F| from below when d is the deepest level
holding a suspect.  A ball where F's Taylor expansion has a dominant
constant term holds no root of F and |F| is constant on it, so it is
settled: its suspects reach exactly down to -v(F(key)).  Only balls that may
hold a root are split, and lifting certifies a root as soon as one is met.

The uniform scaling radius is r = min(b(Q), b(T1))/p with T1 = P'Q - PQ'
(corrected by a height factor for domains outside Z_p), and on any ball of
radius r the map scales distances by exactly |f'(a)|.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable

from .config import DEFAULT_CONFIG, AnalysisConfig
from .domains import Ball, CompactDomain, decompose
from .errors import (
    CertificateFailed,
    DepthCapExceeded,
    PoleInDomain,
    RootCertified,
)
from .hensel import certifies_root_in_radius
from .maps import RationalMap
from .padics import INF, NEG_INF, canonical_key, fraction_valuation
from .polynomials import (
    Polynomial,
    norm_constant_exponent,
    poly_eval,
    squarefree_part,
)

LOCALLY_ISOMETRIC = "LocallyIsometric"
LOCALLY_1_LIPSCHITZ = "Locally1Lipschitz"
BOUNDED_SCALING = "BoundedScaling"
LOCALLY_RHO_LIPSCHITZ = "LocallyRhoLipschitz"

# levels below the start allowed in the per-ball Lipschitz certifier
CERTIFY_CAP = 48


@dataclass(frozen=True)
class ScalingReport:
    classification: str
    # exponent of the bound C (BoundedScaling) or rho (LocallyRhoLipschitz)
    classification_exponent: int | None
    # exponent l of the uniform scaling radius r = p^l (descent route only)
    radius_exponent: int | None
    b_q_exponent: int | None
    b_t1_exponent: int | None
    derivative_root_free: bool
    # coarsest level at which every ball is certified to map into one ball;
    # None when the map is not locally 1-Lipschitz
    transport_level: int | None
    scalar_profile: dict[Ball, int] = field(default_factory=dict)
    scalar_upper_bounds: dict[Ball, int] = field(default_factory=dict)

    @property
    def is_one_lipschitz(self) -> bool:
        return self.classification in (LOCALLY_ISOMETRIC, LOCALLY_1_LIPSCHITZ)


def walk(
    balls: Iterable[Ball], visit: Callable[[Ball], bool], config: AnalysisConfig, what: str
) -> None:
    """Visit ``balls`` (all on one level), then the children of every ball
    that ``visit`` splits, level by level, until no ball is split.

    ``visit(b)`` returns True to split b and False to settle it, or raises.
    A level keeps its parents' order, children by digit, and each level
    below the first must fit ``config.ball_cap``.
    """
    level = list(balls)
    while level:
        split = [b for b in level if visit(b)]
        config.check_ball_budget(len(split) * level[0].prime, what, level[0].level - 1)
        level = [c for b in split for c in b.children()]


def _rescaled(F: Polynomial, X: CompactDomain):
    """Substitute x = y/p^M so the domain lands inside Z_p.

    Returns (G, X_scaled, shift) with G integral, X_scaled in Z_p, and
    |F(x)| = p^shift * |G(p^M x)| for x in X.
    """
    p = F.prime
    M = X.height_exponent()
    if M <= 0:
        return F, X, 0
    d = max(F.degree, 0)
    G = F.shift_variable(-M).scale(Fraction(p) ** (M * d))
    pm = Fraction(p) ** M
    keys = frozenset(k * pm for k in X.keys)
    Xs = CompactDomain(p, X.base_level - M, keys)
    return G, Xs, M * d


def lower_bound_bF(
    F: Polynomial, X: CompactDomain, config: AnalysisConfig = DEFAULT_CONFIG
) -> int:
    """Exponent b with |F(x)| >= p^b certified for every x in X.

    Raises RootCertified when a root of F provably lies in X, and
    DepthCapExceeded when the descent cannot separate |F| from zero within
    the configured depth (reporting the suspect ball).
    """
    if F.is_zero():
        raise ValueError("lower bound of the zero polynomial")
    if not F.is_integral():
        raise ValueError("descent requires integral coefficients")
    G, Xs, shift = _rescaled(F, X)
    sf = squarefree_part(G)
    if sf.degree < G.degree:
        # multiple roots defeat the one-step lifting certificate; settle
        # root existence on the squarefree part first (same root set)
        _descend(sf, Xs, config)
    return _descend(G, Xs, config) + shift


def _descend(F: Polynomial, X: CompactDomain, config: AnalysisConfig) -> int:
    p = F.prime
    start = min(X.base_level, -1)
    floor = start - config.descent_cap
    # (e, b): ball b holds suspects, the level-t balls with v(F(key)) >= -t,
    # down to level e and no further
    deepest: list[tuple[int, Ball]] = []

    def visit(b: Ball) -> bool:
        a, t = b.key, b.level
        v = fraction_valuation(poly_eval(F, a), p)
        if v < -t or norm_constant_exponent(F, a) >= t:
            # |F| = p^-v on all of b
            deepest.append((int(-v), b))
        elif v == INF:
            raise RootCertified(f"{a} is a root of F inside the domain", ball=b)
        elif fraction_valuation(a, p) >= 0 and certifies_root_in_radius(F, a, t):
            raise RootCertified(f"a root of F provably lies in {b}", ball=b)
        elif t == floor:
            deepest.append((t, b))
        else:
            return True
        return False

    walk(decompose(X, start, config), visit, config, "descent")
    breached = [b for e, b in deepest if e <= floor]
    if breached:
        # the suspect the walk would meet first on the floor level
        first = min(
            breached,
            key=lambda b: [canonical_key(b.key, t, p) for t in range(start, floor - 1, -1)],
        )
        suspect = Ball(floor, first.key, p)
        raise DepthCapExceeded(
            f"|F| not separated from 0 after {config.descent_cap} levels; "
            f"suspect ball {suspect}",
            level=floor,
            suspect_ball=suspect,
        )
    return min([start + 1] + [e for e, _ in deepest])


def _two_variable_height_factor(f: RationalMap, M: int) -> int:
    """Exponent h with |T(x,y) - T(a,a)| <= p^h max(|x-a|, |y-a|) on the
    ball of radius p^M, for the symmetric difference-quotient polynomial T
    of an integral P/Q pair."""
    if M <= 0:
        return 0
    total_degree = max(f.P.degree + f.Q.degree - 1, 1)
    return M * (total_degree - 1)


def _q_height_factor(f: RationalMap, M: int) -> int:
    if M <= 0 or f.Q.degree <= 0:
        return 0
    return M * (f.Q.degree - 1)


def _root_free_report(
    f: RationalMap,
    X: CompactDomain,
    b_q: int,
    b_t1: int,
    config: AnalysisConfig,
) -> ScalingReport:
    M = X.height_exponent()
    l = min(b_q - _q_height_factor(f, M), b_t1 - _two_variable_height_factor(f, M)) - 1
    profile: dict[Ball, int] = {}
    for b in decompose(X, l, config):
        e = f.scalar_exponent(b.key)
        if e == NEG_INF:
            raise CertificateFailed(
                f"derivative vanishes at {b.key} despite the lower bound p^{b_t1} on |T1|"
            )
        profile[b] = int(e)
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


def classify(
    f: RationalMap, X: CompactDomain, config: AnalysisConfig = DEFAULT_CONFIG
) -> ScalingReport:
    """Classification of the local scaling behaviour of f on X.

    Uses the radius descent when the derivative is root-free; otherwise
    falls back to a per-ball certification that still decides 1-Lipschitz
    behaviour (recording exact scalars where |f'| is locally constant and
    certified upper bounds around derivative roots).
    """
    if f.t1.is_zero():
        # constant map: distances collapse, trivially 1-Lipschitz
        return ScalingReport(
            classification=LOCALLY_1_LIPSCHITZ,
            classification_exponent=None,
            radius_exponent=None,
            b_q_exponent=None,
            b_t1_exponent=None,
            derivative_root_free=False,
            transport_level=X.base_level,
        )
    try:
        b_q = lower_bound_bF(f.Q, X, config)
    except RootCertified as exc:
        raise PoleInDomain(f"denominator has a root in the domain: {exc}", ball=exc.ball) from exc
    try:
        b_t1 = lower_bound_bF(f.t1, X, config)
    except (RootCertified, DepthCapExceeded):
        # derivative vanishes somewhere (or cannot be separated from zero):
        # decide 1-Lipschitz behaviour ball by ball instead
        return _certified_profile(f, X, config)
    return _root_free_report(f, X, b_q, b_t1, config)


def _certified_profile(
    f: RationalMap, X: CompactDomain, config: AnalysisConfig
) -> ScalingReport:
    """Per-ball Lipschitz certification for maps whose derivative vanishes
    somewhere in the domain."""
    p = f.prime
    M = X.height_exponent()
    h_t = _two_variable_height_factor(f, M)
    start = min(X.base_level, -1)
    floor = start - CERTIFY_CAP
    exact: dict[Ball, int] = {}
    upper: dict[Ball, int] = {}

    def visit(b: Ball) -> bool:
        if b.level < floor:
            raise DepthCapExceeded(
                f"per-ball certification exceeded depth cap at {b}",
                level=b.level,
                suspect_ball=b,
            )
        a = b.key
        t = b.level
        # classify has bounded |Q| from below on X, so Q has no root here
        if t > norm_constant_exponent(f.Q, a):
            return True
        vq = int(fraction_valuation(poly_eval(f.Q, a), p))
        ta = poly_eval(f.t1, a)
        t1_norm_exp = -fraction_valuation(ta, p)  # -inf at an exact derivative root
        lip_bound = max(t1_norm_exp, t + h_t)
        if ta != 0 and t <= norm_constant_exponent(f.t1, a):
            e = int(2 * vq + t1_norm_exp)
            if e > 0 or lip_bound <= -2 * vq:
                exact[b] = e
                return False
            # scalar known but the ball-to-ball certificate needs more depth
        elif lip_bound <= -2 * vq:
            upper[b] = int(lip_bound + 2 * vq)
            return False
        return True

    walk(decompose(X, start, config), visit, config, "per-ball certification")

    # this route is only entered once a derivative root has been certified,
    # so the map cannot be isometric
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
