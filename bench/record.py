"""Record the expected outputs the benchmark checks against.

    python3 bench/record.py

expected.json holds the exit status and stdout digest of every fixed op,
and the digest of every artifact file.  survey_pool.json holds random
integral maps drawn from a fixed pool seed, with the expected exit status
and digest of each of their seven ops: the survey's maps, then as many
different held-out maps.  Run it only at a commit whose answers are
trusted: every later run is checked against these files.
"""

from __future__ import annotations

import json
import os
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from checks import horner  # noqa: E402
from ops import digest_file, run_op  # noqa: E402
from workloads import (  # noqa: E402
    EXPECTED_PATH,
    FINE_DIGRAPH,
    LEVEL_SCAN,
    POOL_PATH,
    SURVEY_PRIMES,
    WORK_DIR,
    poly_text,
    survey_ops,
)

POOL_SEED = 20090923
POOL_SIZE = 16
# A run repeats the survey's pass at least twice within its time limit, so
# recording stops at an op slower than this (deep transport levels make
# `mp` scan for minutes) instead of keeping a pool that cannot be run.
OP_LIMIT_S = 4.0


def record_expected() -> None:
    table = {"ops": {}, "artifacts": {}}
    for op in FINE_DIGRAPH + LEVEL_SCAN:
        res = run_op(op.argv)
        if res.code is None:
            raise SystemExit(f"{' '.join(op.argv)}: {res.unexpected}")
        table["ops"][" ".join(op.argv)] = [res.code, res.digest]
        for path in op.artifacts:
            table["artifacts"][path] = digest_file(path)
    EXPECTED_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def _draw_map(rng: random.Random) -> dict:
    """A random integral map, plus a polynomial with a simple root mod p
    (its numerator, shifted) so that Hensel lifting runs."""
    p = rng.choice(SURVEY_PRIMES)
    pc = [rng.randint(-9, 9) for _ in range(rng.randint(1, 4))] + [rng.randint(1, 9)]
    qc = [rng.randint(-9, 9) for _ in range(rng.randint(0, 3))] + [rng.randint(1, 9)]
    hc = list(pc)
    while True:
        seed = rng.randrange(p)
        hc[0] -= horner(hc, seed, p)
        derivative = [i * c for i, c in enumerate(hc)][1:]
        if horner(derivative, seed, p):
            break
        hc[1] += 1
    return {
        "prime": p,
        "map": f"({poly_text(pc)})/({poly_text(qc)})",
        "hensel_map": poly_text(hc),
        "hensel_seed": seed,
    }


def _record_map(entry: dict) -> dict:
    expected = []
    for op in survey_ops(entry):
        res = run_op(op.argv)
        if res.code is None:
            raise SystemExit(f"{' '.join(op.argv)}: {res.unexpected}")
        if res.seconds > OP_LIMIT_S:
            raise SystemExit(f"{' '.join(op.argv)}: {res.seconds:.1f} s, over {OP_LIMIT_S} s")
        expected.append([res.code, res.digest])
    return dict(entry, expected=expected)


def record_pool() -> None:
    """The survey's maps and the held-out maps: 2 * POOL_SIZE different
    maps, drawn in that order from one generator."""
    rng = random.Random(POOL_SEED)
    maps: list[dict] = []
    while len(maps) < 2 * POOL_SIZE:
        entry = _draw_map(rng)
        if all(entry["map"] != m["map"] for m in maps):
            maps.append(_record_map(entry))
            print(f"{len(maps)}/{2 * POOL_SIZE} maps", file=sys.stderr)
    pool = {
        "pool_seed": POOL_SEED,
        "maps": maps[:POOL_SIZE],
        "held_out": maps[POOL_SIZE:],
    }
    POOL_PATH.write_text(json.dumps(pool, indent=1) + "\n")


def main() -> None:
    os.chdir(ROOT)
    os.makedirs(WORK_DIR, exist_ok=True)
    record_expected()
    record_pool()


if __name__ == "__main__":
    main()
