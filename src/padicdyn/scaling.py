"""Certified lower bounds, uniform scaling radius, and classification.

``walk`` visits a tree of balls level by level, settling or splitting each;
the descent, the per-ball profile and ``global_qp``'s witness check run on it.
Each visit reads a ball through ``_ball_probe`` on integers in y = p^M x,
which takes the domain into Z_p; balls are named in the domain's own
coordinates.  ``lower_bound_bF`` descends on G(y) = p^(Md) F(y / p^M): a
ball of y-level s is a suspect when v(G(y)) >= -s, and p^e bounds |G| from
below when e is the deepest y-level holding a suspect.  A ball where G's
Taylor expansion has a dominant constant term holds no root and |G| is
constant on it, so it is settled: its suspects reach exactly down to
-v(G(y)).  Only balls that may hold a root are split, and lifting certifies
a root as soon as one is met.

The uniform scaling radius is r = min(b(Q), b(T1))/p with T1 = P'Q - PQ'
(corrected by a height factor for domains outside Z_p), and on any ball of
radius r the map scales distances by exactly |f'(a)|.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from .config import DEFAULT_CONFIG, AnalysisConfig
from .domains import Ball, CompactDomain, decompose
from .errors import (
    CertificateFailed,
    DepthCapExceeded,
    PoleInDomain,
    PrimeMismatch,
    RootCertified,
)
from .maps import RationalMap
from .padics import INF, canonical_key
from .polynomials import (
    _ball_probe,
    _is_int_polynomial,
    _rescaled_coefficients,
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


def lower_bound_bF(
    F: Sequence[int], X: CompactDomain, config: AnalysisConfig = DEFAULT_CONFIG
) -> int:
    """Exponent b with |F(x)| >= p^b certified for every x in X, for integer
    coefficients F (lowest degree first, no trailing zeros).

    Raises RootCertified when a root of F provably lies in X, and
    DepthCapExceeded when the descent cannot separate |F| from zero within
    the configured depth (reporting the suspect ball).
    """
    if not _is_int_polynomial(F):
        raise ValueError("descent requires integer coefficients without trailing zeros")
    if not F:
        raise ValueError("lower bound of the zero polynomial")
    M, d = X.height_exponent(), len(F) - 1
    G = _rescaled_coefficients(F, X.prime, d, M)
    sf = squarefree_part(G)
    if len(sf) < len(G):
        # multiple roots defeat the one-step lifting certificate; settle
        # root existence on the squarefree part first (same root set)
        _descend(sf, X, M, config)
    # |F(x)| = p^(Md) |G(p^M x)|
    return _descend(G, X, M, config) + M * d


def _descend(G: list[int], X: CompactDomain, M: int, config: AnalysisConfig) -> int:
    """Exponent e with |G(y)| >= p^e for every y = p^M x, x in X, where X
    lies inside the ball of radius p^M and G has integer coefficients."""
    p = X.prime
    # levels in y; the ball of x-level t has y-level t - M
    start = min(X.base_level - M, -1)
    floor = start - config.descent_cap
    # (e, b): ball b holds suspects down to y-level e and no further
    deepest: list[tuple[int, Ball]] = []

    def visit(b: Ball) -> bool:
        s = b.level - M
        v0, v1, c = _ball_probe(G, p, b.rescaled_key(M))
        if v0 < -s or c >= s:
            # |G| = p^-v0 on all of b
            deepest.append((-v0, b))
        elif v0 == INF:
            raise RootCertified(f"{b.key} is a root of F inside the domain", ball=b)
        elif v0 > 2 * v1 and v1 - v0 <= s:
            # |G(y)| < |G'(y)|^2 lifts to a root within p^(v1 - v0) of y
            raise RootCertified(f"a root of F provably lies in {b}", ball=b)
        elif s == floor:
            deepest.append((s, b))
        else:
            return True
        return False

    walk(decompose(X, start + M, config), visit, config, "descent")
    breached = [b for e, b in deepest if e <= floor]
    if breached:
        # the suspect the walk would meet first on the floor level
        first = min(
            breached,
            key=lambda b: [canonical_key(b.key, t, p) for t in range(start + M, floor + M - 1, -1)],
        )
        suspect = Ball(floor + M, first.key, p)
        raise DepthCapExceeded(
            f"|F| not separated from 0 after {config.descent_cap} levels; "
            f"suspect ball {suspect}",
            level=suspect.level,
            suspect_ball=suspect,
        )
    return min([start + 1] + [e for e, _ in deepest])


def _two_variable_height_factor(f: RationalMap, M: int) -> int:
    """Exponent h with |T(x,y) - T(a,a)| <= p^h max(|x-a|, |y-a|) on the
    ball of radius p^M, for the symmetric difference-quotient polynomial T
    of an integral P/Q pair."""
    if M <= 0:
        return 0
    total_degree = max(f.m + f.n - 1, 1)
    return M * (total_degree - 1)


def _q_height_factor(f: RationalMap, M: int) -> int:
    if M <= 0 or f.n <= 0:
        return 0
    return M * (f.n - 1)


def _root_free_report(
    f: RationalMap,
    X: CompactDomain,
    b_q: int,
    b_t1: int,
    config: AnalysisConfig,
) -> ScalingReport:
    M = X.height_exponent()
    l = min(b_q - _q_height_factor(f, M), b_t1 - _two_variable_height_factor(f, M)) - 1
    Qh, Th = (_rescaled_coefficients(F, f.prime, len(F) - 1, M) for F in (f.Q, f.t1))
    # v(Q(a)) = v(Qh(p^M a)) - oq and likewise for T1 (see _ball_probe)
    oq, ot = M * f.n, M * (len(f.t1) - 1)
    profile: dict[Ball, int] = {}
    for b in decompose(X, l, config):
        y = b.rescaled_key(M)
        vt = _ball_probe(Th, f.prime, y)[0]
        if vt == INF:
            raise CertificateFailed(
                f"derivative vanishes at {b.key} despite the lower bound p^{b_t1} on |T1|"
            )
        # |f'(a)| = |T1(a)| / |Q(a)|^2
        profile[b] = 2 * (_ball_probe(Qh, f.prime, y)[0] - oq) - (vt - ot)
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
    _check_primes(f, X)
    if not f.t1:
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


def _check_primes(f: RationalMap, X: CompactDomain) -> None:
    if f.prime != X.prime:
        raise PrimeMismatch(f"map over p = {f.prime} and domain over p = {X.prime}")


def _certified_profile(
    f: RationalMap, X: CompactDomain, config: AnalysisConfig
) -> ScalingReport:
    """Per-ball Lipschitz certification for maps whose derivative vanishes
    somewhere in the domain."""
    p = f.prime
    M = X.height_exponent()
    h_t = _two_variable_height_factor(f, M)
    Qh, Th = (_rescaled_coefficients(F, f.prime, len(F) - 1, M) for F in (f.Q, f.t1))
    # v(Q(a)) = v(Qh(p^M a)) - oq and likewise for T1 (see _ball_probe)
    oq, ot = M * f.n, M * (len(f.t1) - 1)
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
        t = b.level
        y = b.rescaled_key(M)
        vq, _, cq = _ball_probe(Qh, p, y)
        # classify has bounded |Q| from below on X, so Q has no root here
        if t > cq + M:
            return True
        vq -= oq
        vt, _, ct = _ball_probe(Th, p, y)
        t1_norm_exp = ot - vt  # -inf at an exact derivative root
        lip_bound = max(t1_norm_exp, t + h_t)
        if t <= ct + M:
            e = 2 * vq + t1_norm_exp
            if e > 0 or lip_bound <= -2 * vq:
                exact[b] = e
                return False
            # scalar known but the ball-to-ball certificate needs more depth
        elif lip_bound <= -2 * vq:
            upper[b] = lip_bound + 2 * vq
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
