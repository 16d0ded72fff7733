#!/usr/bin/env python3
"""Survey of random integral rational maps on Z_p.

Samples maps, keeps the locally 1-Lipschitz ones with Z_p forward
invariant, and tabulates classification, measure preservation, and how far
single-cycle scans reach.  Cross-checks every kept digraph against the
brute-force functional graph on residues; a mismatch is reported on stderr
with exit status 1.
"""

import argparse
import random
import sys
from collections import Counter
from fractions import Fraction

from padicdyn import Analysis, CompactDomain, normalize_map
from padicdyn.errors import PadicDynError


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
        try:
            f = normalize_map(pc, qc, p)
            if f.m < 1:
                continue
            A = Analysis(f, X)
            report = A.report
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
        if verdict.kind == "MeasurePreserving":
            erg = A.ergodic(-4)
            stats[f"ergodic scan: {erg.kind}"] += 1
        for t in range(top, -4, -1):
            G = A.digraph(t)
            oracle = brute_force_edges(f, p, t)
            # on Z_p the residues are the integer keys
            lib = {G.residues[i]: G.residues[j] for i, j in enumerate(G.succ)}
            if oracle != lib:
                print(f"oracle mismatch for {f} at level {t}", file=sys.stderr)
                sys.exit(1)
        stats["oracle-checked maps"] += 1

    print(f"kept {kept} of {drawn} drawn maps\n")
    for key in sorted(stats):
        print(f"  {key}: {stats[key]}")


if __name__ == "__main__":
    main()
