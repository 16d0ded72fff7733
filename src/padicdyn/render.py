"""DOT and JSON serializations of level digraphs.

Output is deterministic (vertices sorted by canonical key) and writes are
atomic (temp file in the target directory, then rename).
"""

from __future__ import annotations

import os
import tempfile

from .digraph import LevelDigraph
from .padics import INF, NEG_INF


def digraph_to_dot(G: LevelDigraph) -> str:
    """One node per ball labeled "key (level)"; the unique out-edges are
    solid, except that edges failing the subsidiary admission are dashed."""
    names = G.key_strings
    lines = ["digraph dynamics {"]
    lines.extend(f'  "{k}" [label="{k} ({G.level})"];' for k in names)
    for i, j in enumerate(G.succ):
        dashed = G.subsidiary is not None and not G.subsidiary[i].passes
        lines.append(
            f'  "{names[i]}" -> "{names[j]}" [style={"dashed" if dashed else "solid"}];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def digraph_to_json(G: LevelDigraph) -> str:
    """G with its cycles and tails.  "center" and "rep" repeat the key: a
    ball's key is its canonical center and representative.

    The text is what ``json.dumps(..., indent=2)`` prints for the digraph's
    dict form, plus a newline, written directly because any indent sends
    ``json.dumps`` to its pure-Python encoder.  Keys are ``str(Fraction)``
    (digits, "-" and "/"), so no string needs escaping.
    """
    q = [f'"{k}"' for k in G.key_strings]
    vertices = [
        f'{{\n      "key": {k},\n      "center": {k},\n      "rep": {k}\n    }}'
        for k in q
    ]
    if G.subsidiary is None:
        edges = [
            f'{{\n      "from": {q[i]},\n      "to": {q[j]},\n'
            '      "s": null,\n      "passes": null\n    }'
            for i, j in enumerate(G.succ)
        ]
    else:
        edges = [
            f'{{\n      "from": {q[i]},\n      "to": {q[j]},\n'
            f'      "s": {d.s_exponent},\n'
            f'      "passes": {"true" if d.passes else "false"},\n'
            f'      "bounds": {_json_list([_bound(b) for b in d.bound_exponents], 6)}\n'
            "    }"
            for (i, j), d in zip(enumerate(G.succ), G.subsidiary)
        ]
    cycles = G.cycles
    return (
        f'{{\n  "prime": {G.prime},\n  "level": {G.level},\n'
        f'  "vertices": {_json_list(vertices, 2)},\n'
        f'  "edges": {_json_list(edges, 2)},\n'
        f'  "cycles": {_json_list([_json_list([q[i] for i in c], 4) for c in cycles.cycle_indices], 2)},\n'
        f'  "tails": {_json_list([q[i] for i in cycles.tail_indices], 2)}\n'
        "}\n"
    )


def _json_list(items: list[str], indent: int) -> str:
    """JSON list of encoded ``items`` whose closing bracket sits at
    ``indent``, laid out as by ``json.dumps(..., indent=2)``."""
    if not items:
        return "[]"
    pad = " " * (indent + 2)
    return f"[\n{pad}" + f",\n{pad}".join(items) + "\n" + " " * indent + "]"


def _bound(x) -> str:
    if x == INF:
        return '"inf"'
    if x == NEG_INF:
        return '"-inf"'
    return str(int(x))


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
