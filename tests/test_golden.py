"""Golden CLI outputs: every command on the three worked instances at small
levels, a few failing inputs, and the DOT/JSON files they write.

Each case runs ``padicdyn.cli.main`` in-process from a scratch working
directory and compares exit status, stdout, stderr and every written file
byte for byte with ``tests/golden/cli.json``.  To re-record after an
intended output change, or to record a new case (review the diff of the
JSON file afterwards):

    PYTHONPATH=src python tests/test_golden.py --record [CASE ...]
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli.json"

TWO_BALL = ["-p", "7", "--map", "(x^2-1)/x", "--domain", "B(2,-1)+B(5,-1)"]
PUNCTURED = ["-p", "3", "--map", "(2x^3+x^2+x)/(x^2+1)", "--domain", "Zp-B(4,-2)-B(5,-2)"]
QUARTIC = ["-p", "3", "--map", "(x^4+x^3+2x^2+1)/(x^3-x+1)", "--domain", "Zp"]
INSTANCES = {"two-ball": TWO_BALL, "punctured": PUNCTURED, "quartic": QUARTIC}


def _compact_cases(name: str, args: list[str]) -> dict[str, list[str]]:
    return {
        f"{name}-classify": args + ["classify"],
        f"{name}-radius": args + ["radius"],
        f"{name}-digraph": args + ["digraph", "--level", "-2",
                                   "--dot", "g.dot", "--json", "g.json"],
        f"{name}-subsidiary": args + ["subsidiary", "--level", "-2",
                                      "--dot", "s.dot", "--json", "s.json"],
        f"{name}-intrinsic-level": args + ["intrinsic-level"],
        f"{name}-mp": args + ["mp"],
        f"{name}-ergodic": args + ["ergodic", "--depth", "-3"],
        f"{name}-components": args + ["components", "--level", "-2"],
    }


def _global_cases(name: str, args: list[str]) -> dict[str, list[str]]:
    qp = args[:4] + ["--domain", "Qp"]
    return {
        f"{name}-global": qp + ["global"],
        f"{name}-witness-minimality": qp + ["witness", "--goal", "minimality"],
        f"{name}-witness-ergodicity": qp + ["witness", "--goal", "ergodicity"],
    }


CASES: dict[str, list[str]] = {}
for _name, _args in INSTANCES.items():
    CASES.update(_compact_cases(_name, _args))
    CASES.update(_global_cases(_name, _args))
CASES.update({
    "shift-third-global": ["-p", "3", "--map", "x+1/3", "global"],
    "shift-quarter-global": ["-p", "2", "--map", "x+1/4", "global"],
    "hensel-sqrt2": ["-p", "7", "--map", "x^2-2", "--domain", "Zp",
                     "hensel", "--seed", "3", "--prec", "12"],
    "hensel-exact-root": ["-p", "5", "--map", "x^2-4", "hensel", "--seed", "2", "--prec", "3"],
    "error-pole-in-domain": ["-p", "3", "--map", "1/x", "--domain", "Zp", "classify"],
    "error-not-invariant": ["-p", "3", "--map", "x+1", "--domain", "B(0,-1)",
                            "digraph", "--level", "-2"],
    "error-parse": ["-p", "5", "--map", "x +", "--domain", "Zp", "classify"],
    "error-compact-command-on-qp": ["-p", "5", "--map", "x", "--domain", "Qp", "mp"],
    "error-hensel-precondition": ["-p", "7", "--map", "x^2-3", "hensel", "--seed", "1"],
    "error-composite-prime": ["-p", "4", "--map", "x+1", "--domain", "Zp", "mp"],
    "error-prime-one": ["-p", "1", "--map", "x+1", "--domain", "Zp", "mp"],
    "error-seed-zero-denominator": ["-p", "7", "--map", "x^2-2", "hensel", "--seed", "1/0"],
    "error-seed-not-a-number": ["-p", "7", "--map", "x^2-2", "hensel", "--seed", "abc"],
    "error-seed-negative-valuation": ["-p", "7", "--map", "x^2-2", "hensel", "--seed", "1/7"],
    "error-hensel-precision-zero": ["-p", "7", "--map", "x^2-2", "hensel",
                                    "--seed", "3", "--prec", "0"],
    # 7^100000 has about 84,500 digits: refused before any lifting
    "error-hensel-precision-too-large": ["-p", "7", "--map", "x^2-2", "hensel",
                                         "--seed", "3", "--prec", "100000"],
    "cube-mp-cap-zero": ["-p", "3", "--map", "x^3", "--domain", "Zp", "mp", "--cap", "0"],
    "error-negative-margin": ["-p", "3", "--map", "162x-270", "--domain", "Zp",
                              "intrinsic-level", "--margin", "-1"],
    "error-negative-cap": ["-p", "3", "--map", "1", "--domain", "Zp", "mp", "--cap", "-3"],
    "halved-square-mp-scan": ["-p", "3", "--map", "(x^2+2x)/2", "--domain", "Zp", "mp"],
    "quartic-beyond-zp-mp": QUARTIC[:4] + ["--domain", "B(0,1)", "mp"],
    "quartic-beyond-zp-intrinsic-level": QUARTIC[:4] + ["--domain", "B(0,1)",
                                                        "intrinsic-level", "--margin", "0"],
    # intrinsic levels several levels below the transport level, on Z_p and
    # beyond it, and a search that runs out of levels
    "affine-intrinsic-level-p3": ["-p", "3", "--map", "(7+9x)/(-5)", "--domain", "Zp",
                                  "intrinsic-level"],
    "moebius-beyond-zp-intrinsic-level": ["-p", "2", "--map", "(9+2x)/(9-9x-5x^2)",
                                          "--domain", "B(0,1)", "intrinsic-level"],
    "moebius-beyond-zp-mp": ["-p", "2", "--map", "(9+2x)/(9-9x-5x^2)", "--domain", "B(0,1)",
                             "mp"],
    "error-intrinsic-depth-cap": ["-p", "2", "--map", "(9+2x)/(9-9x-5x^2)",
                                  "--domain", "B(0,1)", "intrinsic-level", "--cap", "3"],
    "shift-ergodic-p5":["-p", "5", "--map", "x+1", "--domain", "Zp", "ergodic", "--depth", "-3"],
    # scans that cycle lifting leaves to the per-level digraphs: several
    # cycles below a passing level, one cycle plus tails, and an image
    # outside the domain
    "quadratic-shift-ergodic-p3": ["-p", "3", "--map", "x+1+3x^2", "--domain", "Zp",
                                   "ergodic", "--depth", "-5"],
    "affine-tails-ergodic-p2": ["-p", "2", "--map", "4x+1", "--domain", "Zp",
                                "ergodic", "--depth", "-5"],
    "cubic-ergodic-p2": ["-p", "2", "--map", "x^3+x+1", "--domain", "Zp",
                         "ergodic", "--depth", "-5"],
    "error-not-invariant-ergodic": ["-p", "5", "--map", "x+1/5", "--domain", "Zp",
                                    "ergodic", "--depth", "-4"],
    "error-usage-decimal-level": TWO_BALL + ["digraph", "--level", "0.5"],
    "error-usage-flag-not-taken": QUARTIC + ["mp", "--dot", "g.dot"],
    "escape-p7-witness-ergodicity": ["-p", "7", "--map=(-7+5*x^2+6*x^3)/(7)",
                                     "witness", "--goal", "ergodicity"],
    "distorting-ball-p7-witness-ergodicity": ["-p", "7", "--map=(3-2*x+3*x^2)/(2+7*x+2*x^2)",
                                              "witness", "--goal", "ergodicity"],
    "invariant-ball-p7-witness-minimality": ["-p", "7", "--map=(3-2*x+3*x^2)/(2+7*x+2*x^2)",
                                             "witness", "--goal", "minimality"],
    "error-witness-denominator-root": ["-p", "7", "--map=(3+8*x)/(1+9*x)",
                                       "witness", "--goal", "ergodicity"],
    # the denominator's root descent stops at the depth cap, undecided
    "error-witness-denominator-depth-cap": ["-p", "7", "--map=(3-2*x+3*x^2)/(2+7*x+2*x^2)",
                                            "witness", "--goal", "ergodicity", "--cap", "1"],
    # the invariant sphere S(0, 1) at p = 17: its 16 base-level balls hold
    # 1,336,336 balls four levels down, over ball_cap
    "sphere-p17-witness-ergodicity": ["-p", "17", "--map", "(x^2-1)/x",
                                      "witness", "--goal", "ergodicity"],
    "fractional-denominator-global": ["-p", "5", "--map", "(-20x+20)/(25x^3+225x^2+200x-2)",
                                      "--domain", "Qp", "global"],
    "derivative-root-beyond-zp-classify": ["-p", "3", "--map", "(-14/9-3x-27x^2)/(1+27x)",
                                           "--domain", "B(0,2)", "classify"],
    "rescaled-subsidiary-failing-edges": ["-p", "2", "--map", "x/(1+2x^2)", "--domain", "B(0,1)",
                                          "subsidiary", "--level", "-2", "--json", "s.json"],
    "error-subsidiary-constant-term": ["-p", "2", "--map", "(3x-3x^2)/(1+3x)",
                                       "--domain", "B(1/2,0)", "subsidiary", "--level", "0"],
    # common factor, negative leading coefficients and rational literals
    "common-factor-global": ["-p", "3", "--map", "(-(x+1)(x^2-2))/((x+1)(-3x+9/2))",
                             "--domain", "Qp", "global"],
    "common-factor-mp": ["-p", "3", "--map", "(-(x+1)(x^2-2))/((x+1)(-3x+9/2))",
                         "--domain", "Zp", "mp"],
    "common-factor-unit-mp": ["-p", "3", "--map", "(-(x+1)(-3x^2+2x-1/2))/((x+1)(-2))",
                              "--domain", "Zp", "mp"],
    "common-factor-hensel": ["-p", "7", "--map", "(-(x+1)(2x^2-4))/((x+1)(-3/5))",
                             "hensel", "--seed", "3", "--prec", "6"],
    # a pole beyond Z_p, met exactly at a key and certified by lifting: the
    # error names it in the domain's coordinates
    "error-exact-pole-beyond-zp": ["-p", "3", "--map", "1/(3x-1)", "--domain", "B(0,1)",
                                   "classify"],
    "error-lifted-pole-beyond-zp": ["-p", "5", "--map", "x+1/(25x^2-10x+26)",
                                    "--domain", "B(0,2)", "classify"],
    # 62,500 level-(-7) balls leave the punctured domain; the error prints
    # their count and the first
    "error-not-invariant-many-escaping": ["-p", "5", "--map", "(9/25+5x)/(5)",
                                          "--domain", "Zp-B(3,-1)", "mp"],
    # scaling profiles: a root-free BoundedScaling map with two exponents
    # (and the ergodic refusal it leads to), a derivative-root profile with
    # three upper-bound balls, and a LocallyRhoLipschitz map
    "bounded-scaling-p5-classify": ["-p", "5", "--map=(3/25)+-1*x+5*x^2+(3/2)*x^3",
                                    "--domain", "B(0,1)", "classify"],
    "error-bounded-scaling-p5-ergodic": ["-p", "5", "--map=(3/25)+-1*x+5*x^2+(3/2)*x^3",
                                         "--domain", "B(0,1)", "ergodic", "--depth", "-3"],
    "upper-bounds-beyond-zp-classify": ["-p", "7", "--map", "(7x^3-4x^2+x-5)/(-4x^2+x-5)",
                                        "--domain", "B(0,2)", "classify"],
    "rho-lipschitz-p7-classify": ["-p", "7", "--map=(-7+5*x^2+6*x^3)/(7)", "--domain", "Zp",
                                  "classify"],
    # a cap of 0 leaves the denominator's root-freeness undecided (exit 2),
    # and Hensel lifting refuses a map with a non-constant denominator
    "undecided-root-freeness-global": ["-p", "5", "--map", "(x^3+1)/(x^2-26)",
                                       "global", "--cap", "0"],
    "error-hensel-rational-map": ["-p", "7", "--map", "x/(x+1)", "hensel", "--seed", "1"],
    # scans near the cycle-lifting certificate's guards: a product of
    # slopes that is 3 mod 4 at p = 2, and a coarse level only one level
    # below the domain's height (both fail deeper down); passing scans on
    # B(0, 1), with a rational denominator, and with a slope of 5 at p = 2
    "slope-three-mod-four-ergodic-p2": ["-p", "2", "--map", "8-5x", "--domain", "B(2,-2)",
                                        "ergodic", "--depth", "-6"],
    "shallow-lift-ergodic-p3": ["-p", "3", "--map", "8-x-4x^2", "--domain", "B(2,-1)",
                                "ergodic", "--depth", "-5"],
    "shift-beyond-zp-ergodic-p3": ["-p", "3", "--map", "x+1/3", "--domain", "B(0,1)",
                                   "ergodic", "--depth", "-8"],
    "moebius-ergodic-p5": ["-p", "5", "--map", "(x+1)/(1+5x)", "--domain", "Zp",
                           "ergodic", "--depth", "-6"],
    "affine-slope-five-ergodic-p2": ["-p", "2", "--map", "5x+3", "--domain", "Zp",
                                     "ergodic", "--depth", "-14"],
    # the denominator is not a unit along the level -2 orbit, where f
    # contracts (f'(0) = 16/9): cycle lifting must not certify the scan
    "nonunit-denominator-ergodic-p2": ["-p", "2", "--map", "(44+40x+23x^2+4x^3)/(6+4x+x^2)",
                                       "--domain", "B(0,-1)", "ergodic", "--depth", "-8"],
    # an orbit that leaves the domain and comes back: 0 -> 1 -> 4 -> 3 -> 0
    # mod 5 passes every other check of cycle lifting, so only the image
    # check keeps the scan from certifying; the digraph then refuses it
    "escaping-orbit-ergodic-p5": ["-p", "5", "--map", "6+3x", "--domain", "Zp-B(3,-1)",
                                  "ergodic", "--depth", "-6"],
    # 2^25 level -25 balls, far over the ball cap: cycle lifting certifies
    # the scan after one orbit of the four level -2 balls
    "shift-deep-ergodic-p2": ["-p", "2", "--map", "x+1", "--domain", "Zp",
                              "ergodic", "--depth", "-25"],
    # mixed-level domains: maximal balls at levels 0 .. -3 (the 78 vertices
    # of the level -4 digraph pin the vertex order), and a coarse ball with
    # a fine one, whose 27 escaping balls start at B(1, -4)
    "mixed-level-digraph": ["-p", "3", "--map=2-x", "--domain", "Zp-B(1,-3)",
                            "digraph", "--level", "-4", "--json", "g.json"],
    "mixed-level-mp": ["-p", "3", "--map=2-x", "--domain", "Zp-B(1,-3)", "mp"],
    "mixed-level-subsidiary": ["-p", "3", "--map=2-x", "--domain", "Zp-B(1,-3)",
                               "subsidiary", "--level", "-3"],
    "mixed-level-punctured-mp": PUNCTURED[:4] + ["--domain", "Zp-B(1,-3)", "mp"],
    "mixed-level-punctured-ergodic": PUNCTURED[:4] + ["--domain", "Zp-B(1,-3)",
                                                      "ergodic", "--depth", "-4"],
    "error-mixed-level-escape-mp": ["-p", "3", "--map", "x+1", "--domain", "B(0,-1)+B(1,-4)",
                                    "mp"],
    "deep-punctured-classify": ["-p", "3", "--map", "x+1", "--domain", "Zp-B(1,-8)",
                                "classify"],
    # the parser's caps and domain-literal checks, and the per-ball
    # certifier's depth cap: around the derivative root 0 of x^2/3^30 the
    # ball-to-ball certificate holds only from level -60
    "error-exponent-too-large": ["-p", "3", "--map", "x^65", "classify"],
    "error-nested-too-deeply": ["-p", "3", "--map", "(" * 65 + "x" + ")" * 65, "classify"],
    "error-domain-missing-denominator": ["-p", "3", "--map", "x", "--domain", "B(1/,0)",
                                         "classify"],
    "error-domain-zero-denominator": ["-p", "3", "--map", "x", "--domain", "B(1/0,0)",
                                      "classify"],
    "error-domain-unclosed-ball": ["-p", "3", "--map", "x", "--domain", "B(1,0", "classify"],
    "error-certification-depth-cap": ["-p", "3", "--map", "x^2/205891132094649",
                                      "--domain", "Zp", "classify"],
    # a unary plus, and a domain literal with trailing input
    "unary-plus-classify": ["-p", "3", "--map", "+x+1", "--domain", "Zp", "classify"],
    "error-domain-trailing-input": ["-p", "3", "--map", "x+1", "--domain", "Zp)", "classify"],
    # x + 2/3 is an isometry of Q_3; with a descent cap of 1 the reduction
    # ball's classification takes the profile route and its mp is Undecided
    "shift-two-thirds-global-cap-one": ["-p", "3", "--map", "(2+3x)/3", "global",
                                        "--cap", "1"],
    # maps whose intrinsic-level search stops with an error: over ball_cap
    # (a unit-slope affine map on Q_5, two maps beyond Z_p), at a constant
    # term that is not integral, and at the descent cap.  mp and global
    # decide them from levels l and l - 1; only a MeasurePreserving mp
    # still runs the search, to print t0
    "unit-slope-global-p5": ["-p", "5", "--map", "(-24/25+3x)/(-7)", "--domain", "Qp",
                             "global"],
    "intrinsic-over-ball-cap-mp-p7": ["-p", "7", "--map=(9*x^0+-8*x^1+-8*x^2)/(8*x^0+-2*x^1+2*x^2)",
                                      "--domain", "B(0,1)", "mp"],
    "intrinsic-constant-term-mp-p7": ["-p", "7", "--map=(9*x^0+-6*x^1)/(-1*x^0+-1*x^1+-6*x^2)",
                                      "--domain", "B(0,2)", "mp", "--margin", "0"],
    "intrinsic-depth-cap-mp-p5": ["-p", "5", "--map=(1*x^0+-7*x^1)/(-9*x^0+5*x^1+-3*x^2)",
                                  "--domain", "B(0,1)", "mp", "--cap", "2"],
    "intrinsic-over-ball-cap-isometry-mp-p5": ["-p", "5", "--map", "6x+(-9/25)",
                                               "--domain", "B(0,2)", "mp"],
    # components of a contraction with transport level -3 and intrinsic
    # level -4: at the transport level and above it, and of a map whose
    # derivative has a root in the domain; the cube's collision at level -2
    # with a descent cap of 1
    "contraction-components-at-transport-level": ["-p", "2", "--map", "4x-3", "--domain", "Zp",
                                                  "components", "--level", "-3"],
    "error-contraction-components-above-transport-level": ["-p", "2", "--map", "4x-3",
                                                           "--domain", "Zp", "components",
                                                           "--level", "-2"],
    "error-derivative-root-components": PUNCTURED[:4] + ["--domain", "Zp", "components",
                                                         "--level", "-1"],
    "cube-mp-cap-one": ["-p", "3", "--map", "x^3", "--domain", "Zp", "mp", "--cap", "1"],
    # domains with many base-level balls and few maximal ones: 1,594,322
    # level -13 balls (over ball_cap) for a classification, an mp that
    # builds that level, and a hensel lift that reads no domain
    "deep-punctured-over-cap-classify": ["-p", "3", "--map", "x+1", "--domain", "Zp-B(1,-13)",
                                         "classify"],
    "error-deep-punctured-over-cap-mp": ["-p", "3", "--map", "x+1", "--domain", "Zp-B(1,-13)",
                                         "mp"],
    "deep-punctured-over-cap-hensel": ["-p", "3", "--map", "x^2-7", "--domain", "Zp-B(1,-13)",
                                       "hensel", "--seed", "1"],
    "deep-punctured-ten-classify": ["-p", "3", "--map", "x+1", "--domain", "Zp-B(1,-10)",
                                    "classify"],
    # the profile route without a radius starts at min(base level, -1), so
    # its exact exponents come from balls finer than the maximal ones
    "deep-punctured-profile-classify": ["-p", "3", "--map", "x^2+x", "--domain", "Zp-B(1,-8)",
                                        "classify"],
    # a radius exponent whose level is over ball_cap: classify and radius
    # never build it, mp does
    "radius-level-over-cap-classify-p7": ["-p", "7", "--map=(-5/343+1x)/(1)",
                                          "--domain", "B(0,1)", "classify"],
    "radius-level-over-cap-radius-p7": ["-p", "7", "--map=(-5/343+1x)/(1)",
                                        "--domain", "B(0,1)", "radius"],
    "error-radius-level-over-cap-mp-p7": ["-p", "7", "--map=(-5/343+1x)/(1)",
                                          "--domain", "B(0,1)", "mp"],
    # a pole certified on a domain of maximal balls at two levels
    "error-mixed-level-pole-classify": ["-p", "3", "--map", "1/(x^2-7)",
                                        "--domain", "B(1,-1)+B(2,-2)", "classify"],
    # the denominator is even at half the keys: cycle lifting refuses, and
    # every level is built with per-key images there (32 of the 64 edges
    # of level -6)
    "even-denominator-ergodic-p2": ["-p", "2", "--map", "(3+3x-5x^2-x^3)/(1+2x+3x^2)",
                                    "--domain", "Zp", "ergodic", "--depth", "-12"],
    "even-denominator-digraph-p2": ["-p", "2", "--map", "(3+3x-5x^2-x^3)/(1+2x+3x^2)",
                                    "--domain", "Zp", "digraph", "--level", "-6",
                                    "--json", "g.json"],
    # an mp whose levels l and l - 1 are unions of cycles (Undecided), and
    # an ergodic scan asked to stop above its starting level
    "undecided-mp-p7": ["-p", "7", "--map", "((-6/3)+(-23)*x^2)/((-2/49)+(23/7)*x+(10)*x^2)",
                        "--domain", "B(0,2)", "mp"],
    "error-depth-above-start-ergodic-p3": ["-p", "3", "--map", "3x+1", "--domain", "Zp",
                                           "ergodic", "--depth", "-1"],
    # argparse hands over --flag=-- as a list of no values: a usage error
    "error-usage-double-dash-seed": ["-p", "5", "--map", "x^2+1", "hensel", "--seed=--"],
    "error-usage-double-dash-prime": ["-p=--", "--map", "x+1", "--domain", "Zp", "mp"],
    "error-usage-double-dash-level": TWO_BALL + ["digraph", "--level=--"],
    "error-usage-double-dash-cap": QUARTIC + ["mp", "--cap=--"],
    "error-usage-double-dash-goal": QUARTIC[:4] + ["witness", "--goal=--"],
    # a constant map (its radius exponent is None), the subsidiary data of
    # an edge with T1(a) = 0, and the two ways a reduction ball ends global:
    # not locally 1-Lipschitz (exit 2), and not forward invariant (exit 0)
    "constant-map-classify": ["-p", "3", "--map", "5", "--domain", "Zp", "classify"],
    "square-subsidiary-zero-t1": ["-p", "3", "--map", "x^2", "--domain", "Zp",
                                  "subsidiary", "--level", "-1"],
    "not-lipschitz-reduction-ball-global": ["-p", "3", "--map", "(3x^3+3x+1)/(3x^2+3)",
                                            "global"],
    "escaping-reduction-ball-global-p2": ["-p", "2", "--map=(-7+2x-5x^3)/(-2-8x+3x^2)",
                                          "global"],
    # unions: a ball added beside 800 maximal balls, and a ball that
    # completes a sibling set, merged back into Z_p
    "long-punctured-union-classify": ["-p", "3", "--map", "x+1",
                                      "--domain", "Zp-B(1,-400)+B(2,-3)", "classify"],
    "sibling-merge-union-classify": ["-p", "3", "--map", "x+1",
                                     "--domain", "Zp-B(1,-1)+B(1,-1)", "classify"],
    # a ball literal whose center, level or comma is missing
    "error-domain-center-not-rational": ["-p", "3", "--map", "x", "--domain", "B(x,1)",
                                         "classify"],
    "error-domain-level-not-integer": ["-p", "3", "--map", "x", "--domain", "B(1,x)",
                                       "classify"],
    "error-domain-missing-comma": ["-p", "3", "--map", "x", "--domain", "B(1 2)", "classify"],
})


def run_case(argv: list[str]) -> dict:
    from padicdyn import cli

    out, err = io.StringIO(), io.StringIO()
    old = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(argv))
            files = {name: Path(name).read_text() for name in sorted(os.listdir(work))}
        finally:
            os.chdir(old)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "files": files}


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    want = _golden()[name]
    assert want["argv"] == CASES[name]
    got = run_case(CASES[name])
    assert got["exit"] == want["exit"]
    assert got["stdout"] == want["stdout"]
    assert got["stderr"] == want["stderr"]
    assert got["files"] == want["files"]


@pytest.mark.parametrize(
    "name",
    ["quartic-global", "shift-third-global", "punctured-mp", "moebius-beyond-zp-mp",
     "two-ball-components", "punctured-components", "contraction-components-at-transport-level"],
)
def test_mp_and_global_print_the_same_bytes_without_the_intrinsic_level(monkeypatch, name):
    # global and a NotMeasurePreserving mp decide from levels l and l - 1,
    # and components at level t from levels t and t - 1
    from padicdyn.digraph import Analysis

    def unread(self):
        raise AssertionError("the intrinsic level was read")

    monkeypatch.setattr(Analysis, "intrinsic_level", property(unread))
    want = _golden()[name]
    got = run_case(CASES[name])
    assert (got["exit"], got["stdout"], got["stderr"]) == (
        want["exit"], want["stdout"], want["stderr"]
    )


def test_golden_file_has_no_stale_cases():
    assert sorted(_golden()) == sorted(CASES)


def record(names: list[str]) -> None:
    """Re-record the named cases (all cases when none are named), keeping
    the other recorded cases as they are."""
    golden = _golden() if GOLDEN.exists() else {}
    for name in names or sorted(CASES):
        golden[name] = {"argv": CASES[name], **run_case(CASES[name])}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:2] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --record [CASE ...]")
    record(sys.argv[2:])
