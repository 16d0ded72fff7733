#!/usr/bin/env python3
"""Survey of random integral rational maps on Z_p, and of their scalar
profiles on punctured domains.

Samples maps, keeps the locally 1-Lipschitz ones with Z_p forward
invariant, and tabulates classification, measure preservation, and how far
single-cycle scans reach.  Cross-checks every kept digraph down to level -6
(p <= 3), -5 (p = 5) or -3 (larger p) against the brute-force functional
graph on residues, and the subsidiary data of those levels against
``subsidiary_edge_data`` on every edge; every measure-preservation verdict
against the first ball of in-degree >= 2 in those graphs, from the
transport level down to the deepest checked level (a map with derivative
roots that passes levels l and l - 1 is Undecided, and no level down to the
deepest checked may fail); the components at each level from the transport
level down to the one above the deepest checked against the cycles of those
graphs and their children's images; every map's single-cycle scan to level
-4 against the cycles of those graphs, and each scan that passes again down
to the deepest checked level;
every intrinsic level against the search over the subsidiary data of every
edge; and the scalar profile of every sampled map with a root-free
derivative against the exponents of |f'| read off exact values at the
level-l residues.  One map in four is drawn on Z_p - B(c, -k), k = 2 or 3,
instead, and only its scalar profile is checked, against the level-l
residues outside the removed ball.  A mismatch is reported on stderr with
exit status 1.
"""

import argparse
import random
import sys
from collections import Counter
from fractions import Fraction

from padicdyn import Analysis, CompactDomain, fraction_valuation, normalize_map, poly_eval
from padicdyn.digraph import subsidiary_edge_data
from padicdyn.errors import DepthCapExceeded, DerivativeRootInDomain, PadicDynError

# the deepest level whose digraph and subsidiary data are checked, by prime
DEEPEST_CHECKED = {2: -6, 3: -6, 5: -5}


def brute_force_edges(f, p, t, depth=4):
    mod_full, mod_t = p**depth, p**(-t)
    edges = {}
    for r in range(mod_full):
        num = 0
        for c in reversed(f.P):
            num = num * r + c
        den = 0
        for c in reversed(f.Q):
            den = den * r + c
        value = Fraction(num, den)
        if value.denominator % p == 0:
            return None
        image = value.numerator * pow(value.denominator, -1, mod_t) % mod_t
        prev = edges.setdefault(r % mod_t, image)
        if prev != image:
            return None
    return edges


def brute_force_cycles(edges):
    """The cycles of a residue graph, each from its least key, least first."""
    cycles, seen = [], set()
    for v in sorted(edges):
        if v in seen:
            continue
        # v is on a cycle exactly when it comes back within len(edges) steps
        cycle, u = [v], edges[v]
        while u != v and len(cycle) <= len(edges):
            cycle.append(u)
            u = edges[u]
        if u == v:
            seen.update(cycle)
            cycles.append(cycle)
    return cycles


def brute_force_scan(f, p, top, depth=-4):
    """(kind, level, cycle count) of the single-cycle scan from level top
    down to depth, read off the brute-force residue graphs."""
    for t in range(top, depth - 1, -1):
        edges = brute_force_edges(f, p, t, max(4, -t))
        cycles = brute_force_cycles(edges)
        if len(cycles) != 1 or len(cycles[0]) != len(edges):
            return "NotErgodic", t, len(cycles)
    return "SingleCycleToDepth", None, None


def brute_force_mp(f, p, top, depth):
    """(kind, level, key, in-degree) of the cycle criterion from level top
    down to depth, read off the brute-force residue graphs: the first level
    holding a ball of in-degree >= 2, with its least such key."""
    for t in range(top, depth - 1, -1):
        edges = brute_force_edges(f, p, t, max(4, -t))
        if edges is None:
            return "no brute-force graph", t, None, None
        hits = Counter(edges.values())
        bad = min((y for y, n in hits.items() if n >= 2), default=None)
        if bad is not None:
            return "NotMeasurePreserving", t, bad, hits[bad]
    return "MeasurePreserving", None, None, None


def brute_force_components(f, p, t):
    """(cycle keys, verdict, witness level, witness key) of each cycle of
    the level-t residue graph, least key first, from the residue graphs of
    levels t and t - 1: a cycle is measure preserving exactly when level
    t - 1 permutes its balls' children, and the witness is the least child
    hit other than once from among them."""
    finer = brute_force_edges(f, p, t - 1, max(4, 1 - t))
    out = []
    for cycle in brute_force_cycles(brute_force_edges(f, p, t, max(4, -t))):
        children = [y + k * p**-t for k in range(p) for y in cycle]
        hits = Counter(finer[c] for c in children)
        bad = min((c for c in children if hits[c] != 1), default=None)
        verdict = "MeasurePreserving" if bad is None else "NotMeasurePreserving"
        out.append((cycle, verdict, None if bad is None else t - 1, bad))
    return out


def per_edge_intrinsic_level(A):
    """The intrinsic-level search on the subsidiary data of every edge of
    every level it reads; the library reads them off per-ball bounds."""
    level = A.transport_level
    margin = A.config.intrinsic_margin
    floor = level - A.config.descent_cap
    for t in range(level, floor - 1, -1):
        if all(A.subsidiary(t - j).is_subsidiary_equal for j in range(margin + 1)):
            return t
    raise DepthCapExceeded(
        f"no level down to {floor} has matching digraph and subsidiary digraph",
        level=floor,
    )


def brute_force_profile(f, p, residues):
    """Multiset of the exponents e with |f'(a)| = |T1(a)| / |Q(a)|^2 = p^e
    over the given level-l residues a, from exact values of Q and T1."""
    return Counter(
        2 * fraction_valuation(poly_eval(f.Q, a), p) - fraction_valuation(poly_eval(f.t1, a), p)
        for a in residues
    )


def outcome(fn):
    """The value, or the exception's type and message."""
    try:
        return fn()
    except PadicDynError as exc:
        return type(exc), str(exc)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--count", type=int, default=100)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--primes", type=int, nargs="+", default=[2, 3, 5])
    args = ap.parse_args()

    rng = random.Random(args.seed)
    stats = Counter()
    kept = 0
    drawn = 0
    while kept < args.count:
        drawn += 1
        p = args.primes[kept % len(args.primes)]
        deg_p = rng.randint(1, 4)
        deg_q = rng.randint(0, 3)
        pc = [rng.randint(-9, 9) for _ in range(deg_p)] + [rng.randint(1, 9)]
        qc = [rng.randint(-9, 9) for _ in range(deg_q)] + [rng.randint(1, 9)]
        X = CompactDomain.zp(p)
        hole = None
        if rng.randrange(4) == 0:
            k = rng.choice((2, 3))
            hole = (rng.randrange(p**k), p**k)
            X = X.difference(CompactDomain.ball(hole[0], -k, p))
        try:
            f = normalize_map(pc, qc, p)
            if f.m < 1:
                continue
            A = Analysis(f, X)
            report = A.report
            if report.derivative_root_free:
                residues = range(p**-report.radius_exponent)
                if hole:
                    residues = [a for a in residues if a % hole[1] != hole[0]]
                want = brute_force_profile(f, p, residues)
                if report.scalar_profile != want:
                    print(
                        f"scalar profile mismatch for {f}: {report.scalar_profile} against "
                        f"{dict(want)}",
                        file=sys.stderr,
                    )
                    sys.exit(1)
                stats["oracle-checked scalar profiles"] += 1
                if hole:
                    stats["oracle-checked punctured profiles"] += 1
            if hole:
                continue
            if not report.is_one_lipschitz or report.transport_level is None:
                stats["rejected: not 1-Lipschitz"] += 1
                continue
            top = min(A.transport_level, -1)
            A.digraph(top)
        except PadicDynError:
            stats["rejected: pole/escape/undecidable"] += 1
            continue
        kept += 1
        stats[f"classification: {report.classification}"] += 1
        verdict = A.mp()
        stats[f"measure preserving: {verdict.kind}"] += 1
        deepest = DEEPEST_CHECKED.get(p, -3)
        if A.transport_level > deepest:
            # the library reads levels l and l - 1 only; the graphs check
            # every level down to the deepest, and with derivative roots a
            # pass at both levels is Undecided
            ball = verdict.witness_ball
            got = (verdict.kind, verdict.witness_level,
                   None if ball is None else int(ball.key), verdict.in_degree)
            want = brute_force_mp(f, p, A.transport_level, deepest)
            if verdict.kind == "Undecided":
                got = (want[0], verdict.scanned_to)
                want = ("MeasurePreserving", A.transport_level - 1)
            if got != want:
                print(f"measure preservation mismatch for {f}: {got} against {want}",
                      file=sys.stderr)
                sys.exit(1)
            stats["oracle-checked mp verdicts"] += 1
            for t in range(A.transport_level, deepest, -1):
                got = outcome(lambda: [
                    ([int(b.key) for b in c.cycle], c.verdict, c.witness_level,
                     None if c.witness_ball is None else int(c.witness_ball.key))
                    for c in A.components(t)
                ])
                if not report.derivative_root_free:
                    want = (DerivativeRootInDomain,
                            "components need a root-free derivative on the domain")
                else:
                    want = brute_force_components(f, p, t)
                if got != want:
                    print(f"components mismatch for {f} at level {t}: {got} against {want}",
                          file=sys.stderr)
                    sys.exit(1)
                stats["oracle-checked component levels"] += 1
        if report.derivative_root_free:
            got = outcome(lambda: A.intrinsic_level)
            want = outcome(lambda: per_edge_intrinsic_level(A))
            if got != want:
                print(f"intrinsic level mismatch for {f}: {got} against {want}", file=sys.stderr)
                sys.exit(1)
            stats["oracle-checked intrinsic levels"] += 1
        # the scan starts at the transport level; the oracle's graphs cover
        # the levels from 0 down to -4
        checked = -4 <= A.transport_level <= 0
        if checked or verdict.kind == "MeasurePreserving":
            erg = A.ergodic(-4)
        if verdict.kind == "MeasurePreserving":
            stats[f"ergodic scan: {erg.kind}"] += 1
        if checked:
            want = brute_force_scan(f, p, A.transport_level)
            if (erg.kind, erg.level, erg.cycle_count) != want:
                print(f"ergodic scan mismatch for {f}: {erg} against {want}", file=sys.stderr)
                sys.exit(1)
            stats["oracle-checked ergodic scans"] += 1
            if erg.kind == "SingleCycleToDepth":
                # cycle lifting may certify the deeper levels without
                # walking them
                erg = A.ergodic(deepest)
                want = brute_force_scan(f, p, A.transport_level, deepest)
                if (erg.kind, erg.level, erg.cycle_count) != want:
                    print(
                        f"deep ergodic scan mismatch for {f}: {erg} against {want}",
                        file=sys.stderr,
                    )
                    sys.exit(1)
                stats["oracle-checked deep ergodic scans"] += 1
        for t in range(top, deepest - 1, -1):
            G = A.digraph(t)
            oracle = brute_force_edges(f, p, t, max(4, -t))
            # on Z_p the residues are the integer keys
            y = G.residues
            lib = {y[i]: y[j] for i, j in enumerate(G.succ)}
            if oracle != lib:
                print(f"oracle mismatch for {f} at level {t}", file=sys.stderr)
                sys.exit(1)
            # the library shares one datum among the edges of a ball where
            # |Q|, |Q'| and |T1| are constant
            per_edge = tuple(
                subsidiary_edge_data(A.form, y[i], y[j], t, A.transport_level)
                for i, j in enumerate(G.succ)
            )
            if A.subsidiary(t).subsidiary != per_edge:
                print(f"subsidiary data mismatch for {f} at level {t}", file=sys.stderr)
                sys.exit(1)
        stats["oracle-checked maps"] += 1

    print(f"kept {kept} of {drawn} drawn maps\n")
    for key in sorted(stats):
        print(f"  {key}: {stats[key]}")


if __name__ == "__main__":
    main()
