"""Certified lower bounds, uniform scaling radius, and classification.

``walk`` visits a tree of balls level by level, settling or splitting each;
the descent, the per-ball profile and ``global_qp``'s witness check run on it.
It names each ball by its rescaled residue y = p^M x, which takes the domain
into Z_p, and each visit reads the ball through ``_ball_probe`` on that
integer.  A ``Ball``, in the domain's own coordinates, is built only for a
ball that a report records or an error names.  ``lower_bound_bF`` descends
on G(y) = p^(Md) F(y / p^M): a ball of y-level s is a suspect when
v(G(y)) >= -s, and p^e bounds |G| from below when e is the deepest y-level
holding a suspect.  A ball where G's Taylor expansion has a dominant
constant term holds no root and |G| is constant on it, so it is settled:
its suspects reach exactly down to -v(G(y)).  Only balls that may hold a
root are split, and lifting certifies a root as soon as one is met.

The uniform scaling radius is r = min(b(Q), b(T1))/p with T1 = P'Q - PQ'
(corrected by a height factor for domains outside Z_p), and on any ball of
radius r the map scales distances by exactly |f'(a)|.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from .config import DEFAULT_CONFIG, AnalysisConfig
from .domains import Ball, CompactDomain, decompose_residues, residue_ball
from .errors import (
    CertificateFailed,
    DepthCapExceeded,
    PoleInDomain,
    PrimeMismatch,
    RootCertified,
)
from .maps import RationalMap
from .padics import INF
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
    X: CompactDomain,
    t: int,
    visit: Callable[[int, int], bool],
    config: AnalysisConfig,
    what: str,
) -> None:
    """Visit the level-t balls of X, then the children of every ball that
    ``visit`` splits, level by level, until no ball is split.

    Balls are named as ``decompose_residues`` names them: ``visit(y, t)``
    gets the residue y of a level-t ball and returns True to split it and
    False to settle it, or raises.  A level keeps its parents' order,
    children by digit, and each level below the first must fit
    ``config.ball_cap``.
    """
    M, level = decompose_residues(X, t, config)
    p = X.prime
    while level:
        split = [y for y in level if visit(y, t)]
        config.check_ball_budget(len(split) * p, what, t - 1)
        step = p ** (M - t)
        level = [y + k * step for y in split for k in range(p)]
        t -= 1


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
    # (e, y): the ball of residue y holds suspects down to y-level e and no
    # further
    deepest: list[tuple[int, int]] = []

    def visit(y: int, t: int) -> bool:
        s = t - M
        v0, v1, c = _ball_probe(G, p, y)
        if v0 < -s or c >= s:
            # |G| = p^-v0 on all of the ball
            deepest.append((-v0, y))
        elif v0 == INF:
            b = residue_ball(y, t, M, p)
            raise RootCertified(f"{b.key} is a root of F inside the domain", ball=b)
        elif v0 > 2 * v1 and v1 - v0 <= s:
            # |G(y)| < |G'(y)|^2 lifts to a root within p^(v1 - v0) of y
            b = residue_ball(y, t, M, p)
            raise RootCertified(f"a root of F provably lies in {b}", ball=b)
        elif s == floor:
            deepest.append((s, y))
        else:
            return True
        return False

    walk(X, start + M, visit, config, "descent")
    breached = [y for e, y in deepest if e <= floor]
    if breached:
        # the suspect the walk would meet first on the floor level: the
        # least by its digits, coarsest first
        first = min(breached, key=lambda y: [y % p**k for k in range(-start, -floor + 1)])
        suspect = residue_ball(first, floor + M, M, p)
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
    for y in decompose_residues(X, l, config)[1]:
        # every ball is recorded
        b = residue_ball(y, l, M, f.prime)
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

    def visit(y: int, t: int) -> bool:
        if t < floor:
            b = residue_ball(y, t, M, p)
            raise DepthCapExceeded(
                f"per-ball certification exceeded depth cap at {b}",
                level=t,
                suspect_ball=b,
            )
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
                exact[residue_ball(y, t, M, p)] = e
                return False
            # scalar known but the ball-to-ball certificate needs more depth
        elif lip_bound <= -2 * vq:
            upper[residue_ball(y, t, M, p)] = lip_bound + 2 * vq
            return False
        return True

    walk(X, start, visit, config, "per-ball certification")

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
