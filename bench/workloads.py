"""The benchmark's workloads: op lists, seeds and named vertex counts.

An op is the argv of one `padicdyn` command; a workload is a list of ops,
and one pass over the list is the unit that is timed and repeated.
fine-digraph and level-scan have fixed inputs.  survey runs seven ops on
each map of a recorded sample of random integral maps (survey_pool.json,
written by record.py); README.md says why the sample is fixed.  The
held-out seed runs the survey on a second, disjoint sample.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
EXPECTED_PATH = BENCH_DIR / "expected.json"
POOL_PATH = BENCH_DIR / "survey_pool.json"

# Artifacts are written relative to the checkout root, so that the stdout
# lines naming them are the same in every checkout.
WORK_DIR = ".bench_work"

DEFAULT_SEED = 1
# Selects the survey's held-out maps.  Not used while the benchmark or a
# change is developed; a claimed gain must also hold on this seed.  It lies
# far from the small seeds of a steadiness sweep, which should all run the
# same maps.
HELD_OUT_SEED = 4130

WORKLOADS = ("fine-digraph", "level-scan", "survey")
SURVEY_PRIMES = (2, 3, 5, 7)

QUARTIC = ["-p", "3", "--map", "(x^4+x^3+2x^2+1)/(x^3-x+1)", "--domain", "Zp"]
TWO_BALL = ["-p", "7", "--map", "(x^2-1)/x", "--domain", "B(2,-1)+B(5,-1)"]
PUNCTURED = ["-p", "3", "--map", "(2x^3+x^2+x)/(x^2+1)", "--domain", "Zp-B(4,-2)-B(5,-2)"]


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    # level balls of the digraphs the argv asks for, counted from the input
    named_vertices: int = 0
    # paths of the DOT/JSON files the op writes
    artifacts: tuple[str, ...] = ()


def _ergodic_zp(p: int, depth: int) -> Op:
    # the scan answers every level from -1 down to the depth: p^k balls each
    argv = ("-p", str(p), "--map", "x+1", "--domain", "Zp", "ergodic", "--depth", str(depth))
    return Op(argv, sum(p**k for k in range(1, -depth + 1)))


FINE_DIGRAPH = [
    Op(
        tuple(QUARTIC) + ("digraph", "--level", "-8",
                          "--dot", f"{WORK_DIR}/quartic-8.dot",
                          "--json", f"{WORK_DIR}/quartic-8.json"),
        3**8,
        (f"{WORK_DIR}/quartic-8.dot", f"{WORK_DIR}/quartic-8.json"),
    ),
    # two balls of radius 7^-1, each split into 7^4 balls at level -5
    Op(tuple(TWO_BALL) + ("digraph", "--level", "-5"), 2 * 7**4),
    # Z_3 at level -7 minus two balls of radius 3^-2
    Op(
        tuple(PUNCTURED) + ("subsidiary", "--level", "-7",
                            "--json", f"{WORK_DIR}/punctured-7.json"),
        3**7 - 2 * 3**5,
        (f"{WORK_DIR}/punctured-7.json",),
    ),
]

LEVEL_SCAN = [
    _ergodic_zp(2, -13),
    _ergodic_zp(3, -9),
    _ergodic_zp(5, -6),
    Op(tuple(QUARTIC) + ("intrinsic-level", "--margin", "6")),
    Op(("-p", "3", "--map", "x+1/3", "global")),
    Op(("-p", "2", "--map", "x+1/4", "global")),
]


def poly_text(coeffs: list[int]) -> str:
    """Polynomial text in the CLI's syntax, lowest degree first."""
    terms = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        mono = "" if i == 0 else ("x" if i == 1 else f"x^{i}")
        if i == 0:
            terms.append(str(c))
        elif c in (1, -1):
            terms.append(("-" if c < 0 else "") + mono)
        else:
            terms.append(f"{c}*{mono}")
    return "+".join(terms).replace("+-", "-") or "0"


def survey_ops(entry: dict) -> list[Op]:
    """The seven ops run on one surveyed map.  `--map=` keeps argparse from
    reading a leading minus sign as an option."""
    p, m = str(entry["prime"]), "--map=" + entry["map"]
    zp = ["-p", p, m, "--domain", "Zp"]
    depth = -3
    return [
        Op(tuple(zp + ["classify"])),
        Op(tuple(zp + ["mp"])),
        Op(tuple(zp + ["intrinsic-level"])),
        Op(tuple(zp + ["ergodic", "--depth", str(depth)]),
           sum(entry["prime"] ** k for k in range(1, -depth + 1))),
        Op(("-p", p, m, "global")),
        Op(("-p", p, m, "witness", "--goal", "ergodicity")),
        Op(("-p", p, "--map=" + entry["hensel_map"], "hensel",
            "--seed", str(entry["hensel_seed"]), "--prec", "12")),
    ]


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def load_pool(held_out: bool = False) -> list[dict]:
    return json.loads(POOL_PATH.read_text())["held_out" if held_out else "maps"]


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    ops: list[Op]
    # expected (exit code, stdout digest) of each op
    expected: list[tuple[int, str]]
    # expected digests of the artifact files, by path
    artifact_digests: dict[str, str]


def build(name: str, seed: int) -> Workload:
    """The workload's op list for a seed.  The same seed gives the same
    list.  The seed sets the order of the survey's maps, and the held-out
    seed runs the held-out maps instead; fine-digraph and level-scan do not
    depend on it."""
    if name == "survey":
        maps = load_pool(held_out=seed == HELD_OUT_SEED)
        random.Random(seed).shuffle(maps)
        ops = [op for e in maps for op in survey_ops(e)]
        expected = [tuple(x) for e in maps for x in e["expected"]]
        return Workload(name, seed, ops, expected, {})
    ops = {"fine-digraph": FINE_DIGRAPH, "level-scan": LEVEL_SCAN}[name]
    table = load_expected()
    expected = [tuple(table["ops"][" ".join(op.argv)]) for op in ops]
    artifacts = {path: table["artifacts"][path] for op in ops for path in op.artifacts}
    return Workload(name, seed, list(ops), expected, artifacts)
