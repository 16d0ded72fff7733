"""Independent checks of the outputs, run outside the timed region.

The recorded exit statuses and digests (record.py) catch any change of
answer.  The oracles below check the answers themselves, with plain
integer arithmetic and without the library.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from pathlib import Path

from ops import OpResult, digest_file
from workloads import Op

# integer coefficients, lowest degree first, of the fine-digraph maps
QUARTIC = ([1, 0, 2, 1, 1], [1, -1, 0, 1])
TWO_BALL = ([-1, 0, 1], [0, 1])
PUNCTURED = ([0, 1, 1, 2], [1, 0, 1])


def horner(coeffs: list[int], x: int, modulus: int) -> int:
    value = 0
    for c in reversed(coeffs):
        value = (value * x + c) % modulus
    return value


def residue_edge(maps: tuple[list[int], list[int]], p: int, level: int, r: int) -> int:
    """The level ball holding f(r), for an integral r where Q(r) is a unit."""
    modulus = p**-level
    num, den = maps
    return horner(num, r, modulus) * pow(horner(den, r, modulus), -1, modulus) % modulus


def check_result(res: OpResult, expected: tuple[int, str]) -> str | None:
    """The op's exit status and output against the recorded ones."""
    if res.code is None:
        return f"unexpected exception: {res.unexpected}"
    code, digest = expected
    if res.code != code:
        return f"exit status {res.code}, expected {code}"
    if res.digest != digest:
        return f"output digest {res.digest}, expected {digest}"
    return None


def check_artifacts(op: Op, digests: dict[str, str]) -> str | None:
    for path in op.artifacts:
        got = digest_file(path)
        if got != digests[path]:
            return f"{path}: digest {got}, expected {digests[path]}"
    return None


def _json_edges(path: str, maps, p: int, level: int, keys: set[int]) -> str | None:
    """Re-read an emitted JSON digraph and check every edge by residues."""
    raw = json.loads(Path(path).read_text())
    if raw["prime"] != p or raw["level"] != level:
        return f"{path}: prime/level {raw['prime']}/{raw['level']}"
    got = {int(Fraction(e["from"])): int(Fraction(e["to"])) for e in raw["edges"]}
    if set(got) != keys:
        return f"{path}: {len(got)} vertices, expected {len(keys)}"
    for r, image in got.items():
        if residue_edge(maps, p, level, r) != image:
            return f"{path}: edge {r} -> {image}, residues give {residue_edge(maps, p, level, r)}"
    return None


def _dot_edges(path: str) -> dict[int, int]:
    edges = {}
    for line in Path(path).read_text().splitlines():
        m = re.fullmatch(r'\s*"(\d+)" -> "(\d+)" \[style=\w+\];', line)
        if m:
            edges[int(m[1])] = int(m[2])
    return edges


def oracle_fine_digraph(ops: list[Op], results: list[OpResult]) -> list[tuple[int, str]]:
    """(op index, problem) for the three fine-digraph ops."""
    problems = []
    quartic_dot, quartic_json = ops[0].artifacts
    err = _json_edges(quartic_json, QUARTIC, 3, -8, set(range(3**8)))
    if err is None:
        raw = json.loads(Path(quartic_json).read_text())
        json_edges = {int(e["from"]): int(e["to"]) for e in raw["edges"]}
        if _dot_edges(quartic_dot) != json_edges:
            err = "quartic DOT and JSON edges differ"
    if err:
        problems.append((0, err))

    # every vertex of the two-ball digraph lies on a printed cycle
    out = results[1].stdout
    seen = set()
    err = None
    for line in out.splitlines():
        if line.startswith("cycle: "):
            cyc = [int(k) for k in line[len("cycle: "):].split(" -> ")]
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                if residue_edge(TWO_BALL, 7, -5, a) != b:
                    err = f"two-ball edge {a} -> {b} is wrong"
            seen.update(cyc)
    if err is None and seen != {r for r in range(7**5) if r % 7 in (2, 5)}:
        err = f"two-ball cycles cover {len(seen)} vertices, expected {2 * 7**4}"
    if err:
        problems.append((1, err))

    punctured_keys = {r for r in range(3**7) if r % 9 not in (4, 5)}
    err = _json_edges(ops[2].artifacts[0], PUNCTURED, 3, -7, punctured_keys)
    if err:
        problems.append((2, err))
    return problems


def oracle_level_scan(ops: list[Op], results: list[OpResult]) -> list[tuple[int, str]]:
    """x+1 permutes Z/p^k as one cycle at every level, so each ergodic scan
    must report a single cycle down to its depth."""
    problems = []
    for i, (op, res) in enumerate(zip(ops, results)):
        if "ergodic" in op.argv:
            depth = op.argv[op.argv.index("--depth") + 1]
            if res.code != 2 or not res.stdout.startswith(f"SingleCycleToDepth {depth}\n"):
                problems.append((i, "x+1 is not reported as one cycle"))
    return problems


def _poly_coeffs(text: str) -> list[int]:
    """Coefficients of a polynomial written by workloads.poly_text."""
    coeffs: dict[int, int] = {}
    for sign, c, x, e in re.findall(r"([+-]?)(\d*)\*?(x?)(?:\^(\d+))?", text):
        if not (c or x):
            continue
        deg = int(e) if e else (1 if x else 0)
        coeffs[deg] = int(sign + (c or "1"))
    return [coeffs.get(i, 0) for i in range(max(coeffs) + 1)]


def oracle_survey(ops: list[Op], results: list[OpResult]) -> list[tuple[int, str]]:
    """Every Hensel root is a root modulo p^k; every witness printed is
    verified."""
    problems = []
    for i, (op, res) in enumerate(zip(ops, results)):
        if "hensel" in op.argv and res.code == 0:
            m = re.search(r"^root: (\S+) \(mod (\d+)\^(\d+)\)$", res.stdout, re.M)
            poly = op.argv[op.argv.index("hensel") - 1].removeprefix("--map=")
            if m is None:
                problems.append((i, "no root printed"))
                continue
            root, p, k = Fraction(m[1]), int(m[2]), int(m[3])
            if root.denominator != 1 or horner(_poly_coeffs(poly), root.numerator, p**k):
                problems.append((i, f"F({root}) is not 0 mod {p}^{k}"))
        if "witness" in op.argv:
            verified = re.search(r"^verified at depth -?\d+: ok$", res.stdout, re.M)
            if "FAILED" in res.stdout or (res.code == 0 and not verified):
                problems.append((i, "witness not verified"))
    return problems
