"""Certified lower bounds, uniform scaling radius, and classification.

``walk`` visits a tree of balls level by level from the domain's maximal
balls, settling or splitting each; the descent, the scalar profile of
``classify`` and ``global_qp``'s witness check run on it.  It names each
ball by its rescaled residue y = p^M x, which takes the domain into Z_p,
and each visit reads the ball through ``_ball_probe`` at that integer and
the ball's own radius: a ball of level t is y + p^(M - t) Z_p in y.  A
``Ball``, in the domain's own coordinates, is built only for a ball that
an error names.
``lower_bound_bF`` descends on G(y) = p^(Md) F(y / p^M): a ball of y-level
s is a suspect when v(G(y)) >= -s, and p^e bounds |G| from below when e is
the deepest y-level holding a suspect.  A ball where G's Taylor expansion
has a dominant constant term holds no root and |G| is constant on it, so
it is settled: its suspects reach exactly down to -v(G(y)).  Only balls
that may hold a root are split, and lifting certifies a root as soon as
one is met.

The uniform scaling radius is r = min(b(Q), b(T1))/p with T1 = P'Q - PQ'
(corrected by a height factor for domains outside Z_p), and on any ball of
radius r the map scales distances by exactly |f'(a)|.  ``classify`` reads
|f'| = |T1|/|Q|^2 off the same walk on both of its routes: a ball where
|Q| and |T1| are constant fixes |f'| on its whole subtree, so it is settled
once and counted for the balls of its settle level that it holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from .config import DEFAULT_CONFIG, AnalysisConfig
from .domains import CompactDomain, residue_ball, start_residues
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
    # exponent l of the uniform scaling radius r = p^l on the root-free
    # route; the transport level on the other route
    radius_exponent: int | None
    b_q_exponent: int | None
    b_t1_exponent: int | None
    derivative_root_free: bool
    # coarsest level at which every ball is certified to map into one ball;
    # None when the map is not locally 1-Lipschitz
    transport_level: int | None
    # exponent e of |f'| = p^e -> count of balls at their settle level
    # (level l on the root-free route) where |f'| = p^e
    scalar_profile: dict[int, int] = field(default_factory=dict)
    # exponent e -> count of balls near derivative roots where |f'| <= p^e
    scalar_upper_bounds: dict[int, int] = field(default_factory=dict)
    # whether the descent on T1 certified a root of T1 in the domain
    derivative_root_certified: bool = False

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
    """Visit X's maximal balls, each split to level t or, if finer, at its
    own level, and the children of every ball that ``visit`` splits, level
    by level, until no ball is left.

    Balls are named as ``decompose_residues`` names them: ``visit(y, t)``
    gets the residue y of a level-t ball and returns True to split it and
    False to settle it, or raises.  A level lists the children in their
    parents' order, by digit, then its maximal balls by key, and must fit
    ``config.ball_cap``.
    """
    M, levels = start_residues(X, t, config)
    p, level = X.prime, levels.pop(t)
    while level or levels:
        split = [y for y in level if visit(y, t)]
        step = p ** (M - t)
        t -= 1
        joining = levels.pop(t, [])
        config.check_ball_budget(len(split) * p + len(joining), what, t)
        level = [y + k * step for y in split for k in range(p)] + joining


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
        v0, v1, _, exact = _ball_probe(G, p, y, M - t)
        if v0 < -s or exact:
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

    walk(X, M - 1, visit, config, "descent")
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
    of an integral P/Q pair (M >= 0)."""
    return M * max(f.m + f.n - 2, 0)


def _q_height_factor(f: RationalMap, M: int) -> int:
    return M * max(f.n - 1, 0)


def classify(
    f: RationalMap, X: CompactDomain, config: AnalysisConfig = DEFAULT_CONFIG
) -> ScalingReport:
    """Classification of the local scaling behaviour of f on X.

    Uses the radius descent when the derivative is root-free, and reads
    |f'| on the level-l balls of the scaling radius p^l; otherwise falls
    back to a per-ball certification that still decides 1-Lipschitz
    behaviour (exact scalars where |f'| is locally constant, certified upper
    bounds around derivative roots).  Both routes walk the domain once with
    ``_scalar_profile``.
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
    M = X.height_exponent()
    try:
        b_t1, root = lower_bound_bF(f.t1, X, config), False
    except (RootCertified, DepthCapExceeded) as exc:
        # derivative vanishes somewhere (or cannot be separated from zero):
        # decide 1-Lipschitz behaviour ball by ball instead
        b_q = b_t1 = l = None
        root = isinstance(exc, RootCertified)
    else:
        l = min(b_q - _q_height_factor(f, M), b_t1 - _two_variable_height_factor(f, M)) - 1
    exact, upper, least = _scalar_profile(f, X, M, l, config)
    exponents = exact.keys() | upper.keys()
    if max(exponents) > 0:
        kind = LOCALLY_RHO_LIPSCHITZ if l is None else BOUNDED_SCALING
        bound, transport = max(exponents), None
    else:
        kind = LOCALLY_ISOMETRIC if l is not None and exponents == {0} else LOCALLY_1_LIPSCHITZ
        bound, transport = None, least
    return ScalingReport(
        classification=kind,
        classification_exponent=bound,
        radius_exponent=transport if l is None else l,
        b_q_exponent=b_q,
        b_t1_exponent=b_t1,
        derivative_root_free=l is not None,
        transport_level=transport,
        scalar_profile=exact,
        scalar_upper_bounds=upper,
        derivative_root_certified=root,
    )


def _scalar_profile(
    f: RationalMap, X: CompactDomain, M: int, l: int | None, config: AnalysisConfig
) -> tuple[dict[int, int], dict[int, int], int]:
    """(exact, upper, least): the exponents e with |f'| = p^e on the balls
    of X, and the bounds |f'| <= p^e near derivative roots, each mapped to
    the count of balls it holds for, and the least settle level.

    ``walk`` settles a ball once |Q| and |T1| are certified constant on it,
    which fixes e = 2v(Q) - v(T1) on its whole subtree.  The ball then
    stands for its p^(t - s) sub-balls of its settle level s: the radius
    exponent l on the root-free route, where every level-l ball must be
    settled; on the other route (l None) t itself when e > 0, and otherwise
    the level -2v(Q) - h_t where the ball-to-ball certificate
    max(|T1|, p^(t + h_t)) <= |Q|^2 holds, if finer than t.  A ball where
    only |Q| is constant and that certificate holds is settled with an
    upper bound on |f'|.  The route without l starts at min(base level, -1):
    a coarser ball could settle with one bound over several exact exponents.
    """
    p, form = f.prime, f.rescaled(M)
    h_t = _two_variable_height_factor(f, M)
    start = min(X.base_level, -1) if l is None else M
    floor = start - CERTIFY_CAP if l is None else l
    exact: dict[int, int] = {}
    upper: dict[int, int] = {}
    least = start

    def visit(y: int, t: int) -> bool:
        nonlocal least
        if t < floor:
            b = residue_ball(y, t, M, p)
            raise DepthCapExceeded(
                f"per-ball certification exceeded depth cap at {b}",
                level=t,
                suspect_ball=b,
            )
        vq, _, _, cq = _ball_probe(form.den, p, y, M - t)
        vt, _, _, ct = _ball_probe(form.t1, p, y, M - t)
        # v(Q(a)) = v(den(y)) - o and v(T1(a)) = v(t1(y)) - 2o
        vq -= form.offset
        t1_norm_exp = 2 * form.offset - vt  # -inf at an exact derivative root
        if cq and ct:
            e = 2 * vq + t1_norm_exp
            s = l if l is not None else t if e > 0 else min(t, -2 * vq - h_t)
            exact[e] = exact.get(e, 0) + p ** (t - s)
        elif t == l:
            raise CertificateFailed(
                f"|Q| and |T1| are not certified constant on {residue_ball(y, t, M, p)} "
                f"at the scaling radius"
            )
        elif l is None and cq and max(t1_norm_exp, t + h_t) <= -2 * vq:
            s = t
            e = max(t1_norm_exp, t + h_t) + 2 * vq
            upper[e] = upper.get(e, 0) + 1
        else:
            return True
        least = min(least, s)
        return False

    walk(X, start, visit, config, "per-ball certification")
    return exact, upper, least


def _check_primes(f: RationalMap, X: CompactDomain) -> None:
    if f.prime != X.prime:
        raise PrimeMismatch(f"map over p = {f.prime} and domain over p = {X.prime}")
