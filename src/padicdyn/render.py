"""DOT and JSON serializations of level digraphs.

Output is deterministic (vertices sorted by canonical key) and writes are
atomic (temp file in the target directory, then rename).  Each distinct
subsidiary datum is formatted once (``LevelDigraph.per_datum``), however
many edges share it.
"""

from __future__ import annotations

import os
import tempfile
from itertools import repeat

from .digraph import LevelDigraph
from .padics import INF, NEG_INF


def digraph_to_dot(G: LevelDigraph) -> str:
    """One node per ball labeled "key (level)"; the unique out-edges are
    solid, except that edges failing the subsidiary admission are dashed."""
    names = G.key_strings
    label = f' ({G.level})"];'
    if G.subsidiary is None:
        styles = repeat("solid")
    else:
        styles = G.per_datum(lambda d: "solid" if d.passes else "dashed")
    lines = ["digraph dynamics {"]
    lines += [f'  "{k}" [label="{k}{label}' for k in names]
    lines += [
        f'  "{k}" -> "{names[j]}" [style={style}];'
        for k, j, style in zip(names, G.succ, styles)
    ]
    lines.append("}\n")
    return "\n".join(lines)


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
        tails = repeat('      "s": null,\n      "passes": null\n    }')
    else:
        tails = G.per_datum(
            lambda d: f'      "s": {d.s_exponent},\n'
            f'      "passes": {"true" if d.passes else "false"},\n'
            f'      "bounds": {_json_list([_bound(b) for b in d.bound_exponents], 6)}\n'
            "    }"
        )
    edges = [
        f'{{\n      "from": {k},\n      "to": {q[j]},\n{tail}'
        for k, j, tail in zip(q, G.succ, tails)
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
    """Write ``content`` to ``path`` through a temp file in its directory,
    created with the mode ``open(path, "w")`` would give it."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            # mkstemp creates the file 0o600; open(path, "w") honours the umask
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(handle.fileno(), 0o666 & ~umask)
            handle.write(content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
