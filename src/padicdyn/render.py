"""DOT and JSON serializations of level digraphs.

Output is deterministic (vertices sorted by canonical key) and writes are
atomic (temp file in the target directory, then rename).
"""

from __future__ import annotations

import json
import os
import tempfile
from fractions import Fraction

from .digraph import CycleDecomposition, LevelDigraph, cycle_decomposition


def digraph_to_dot(G: LevelDigraph, name: str = "dynamics") -> str:
    """One node per ball labeled "key (level)"; the unique out-edges are
    solid, except that edges failing the subsidiary admission are dashed."""
    lines = [f"digraph {name} {{"]
    for v in G.vertices:
        lines.append(f'  "{v.key}" [label="{v.key} ({v.level})"];')
    for v in G.vertices:
        style = "solid"
        if G.subsidiary is not None and not G.subsidiary[v].passes:
            style = "dashed"
        lines.append(f'  "{v.key}" -> "{G.edge[v].key}" [style={style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _ext(x):
    if x is None:
        return None
    if x == float("inf"):
        return "inf"
    if x == float("-inf"):
        return "-inf"
    return int(x)


def digraph_to_json_dict(G: LevelDigraph, cycles: CycleDecomposition) -> dict:
    """``cycles`` is G's cycle decomposition.  "center" and "rep" repeat the
    key: a ball's key is its canonical center and representative."""
    vertices = [
        {"key": str(v.key), "center": str(v.key), "rep": str(v.key)}
        for v in G.vertices
    ]
    edges = []
    for v in G.vertices:
        entry = {"from": str(v.key), "to": str(G.edge[v].key)}
        if G.subsidiary is not None:
            data = G.subsidiary[v]
            entry["s"] = data.s_exponent
            entry["passes"] = data.passes
            entry["bounds"] = [_ext(b) for b in data.bound_exponents]
        else:
            entry["s"] = None
            entry["passes"] = None
        edges.append(entry)
    return {
        "prime": G.prime,
        "level": G.level,
        "vertices": vertices,
        "edges": edges,
        "cycles": [[str(v.key) for v in c] for c in cycles.cycles],
        "tails": [str(v.key) for v in cycles.tail_vertices],
    }


def digraph_to_json(G: LevelDigraph, cycles: CycleDecomposition) -> str:
    return json.dumps(digraph_to_json_dict(G, cycles), indent=2) + "\n"


def digraph_from_json(text: str) -> dict:
    """Re-read an emitted digraph into a structural form: keys as exact
    rationals, edge map, cycles.  Used for round-trip checks."""
    raw = json.loads(text)
    return {
        "prime": raw["prime"],
        "level": raw["level"],
        "vertices": [Fraction(v["key"]) for v in raw["vertices"]],
        "edges": {Fraction(e["from"]): Fraction(e["to"]) for e in raw["edges"]},
        "cycles": [[Fraction(k) for k in c] for c in raw["cycles"]],
        "tails": [Fraction(k) for k in raw.get("tails", [])],
    }


def structural_form(G: LevelDigraph) -> dict:
    dec = cycle_decomposition(G)
    return {
        "prime": G.prime,
        "level": G.level,
        "vertices": [v.key for v in G.vertices],
        "edges": {v.key: G.edge[v].key for v in G.vertices},
        "cycles": [[v.key for v in c] for c in dec.cycles],
        "tails": [v.key for v in dec.tail_vertices],
    }


def write_atomic(path: str, content: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
