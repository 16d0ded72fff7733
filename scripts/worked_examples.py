#!/usr/bin/env python3
"""End-to-end runs of the three bundled worked instances.

Prints the full analysis for each (classification, radius, intrinsic level,
digraph cycle structure, verdicts) and optionally writes DOT files with
--dot-dir.  Useful as a quick visual sanity check after changes.
"""

import argparse
import os

from padicdyn import (
    Analysis,
    cycle_decomposition,
    degree_gate,
    global_check,
    parse_domain,
    parse_map,
)
from padicdyn.render import dot_chunks, write_atomic

INSTANCES = [
    ("quadratic-over-linear on two unit balls", 7, "(x^2-1)/x", "B(2,-1)+B(5,-1)", -2),
    ("cubic-over-quadratic on a punctured Z_3", 3, "(2x^3+x^2+x)/(x^2+1)", "Zp-B(4,-2)-B(5,-2)", -2),
    ("quartic-over-cubic on Z_3", 3, "(x^4+x^3+2x^2+1)/(x^3-x+1)", "Zp", -1),
]


def analyze(name, p, map_text, domain_text, level, dot_dir=None):
    print(f"== {name}: p={p}, f={map_text}, X={domain_text}")
    f = parse_map(map_text, p)
    X = parse_domain(domain_text, p)
    A = Analysis(f, X)
    report = A.report
    print(f"   classification: {report.classification}, l={report.radius_exponent}")
    t0 = A.intrinsic_level
    print(f"   intrinsic level t0 = {t0}")
    G = A.subsidiary(level)
    dec = cycle_decomposition(G)
    print(
        f"   level {level}: {len(G.vertices)} balls, cycles {dec.cycle_lengths}, "
        f"{len(dec.tail_indices)} tails, subsidiary=full: {G.is_subsidiary_equal}"
    )
    verdict = A.mp()
    print(f"   measure preserving: {verdict.kind}")
    erg = A.ergodic(level - 2)
    print(f"   ergodic scan: {erg.kind} (level {erg.level}, depth {erg.depth})")
    for c in A.components(level):
        balls = ",".join(str(b.key) for b in c.cycle)
        print(f"   component [{balls}]: {c.verdict}")
    if dot_dir:
        path = os.path.join(dot_dir, f"p{p}_level{abs(level)}.dot")
        write_atomic(path, dot_chunks(G))
        print(f"   dot written: {path}")
    print()


def global_analysis():
    print("== global analysis of the quartic-over-cubic map on Q_3")
    f = parse_map("(x^4+x^3+2x^2+1)/(x^3-x+1)", 3)
    gate = degree_gate(f)
    print(f"   gate: alpha={gate.alpha}, m={gate.m}, n={gate.n}, N={gate.N_exponent}")
    g = global_check(f, gate=gate)
    print(f"   invertible local isometry: {g.isometry}")
    print(f"   measure preserving: {g.measure_preserving}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--dot-dir", help="directory for DOT artifacts")
    args = ap.parse_args()
    if args.dot_dir:
        os.makedirs(args.dot_dir, exist_ok=True)
    for name, p, m, d, level in INSTANCES:
        analyze(name, p, m, d, level, args.dot_dir)
    global_analysis()


if __name__ == "__main__":
    main()
