"""DOT and JSON serializations of level digraphs.

Output is deterministic (vertices sorted by canonical key).  Each format
has one renderer, which yields its text in chunks of at most ``CHUNK``
vertices, edges, cycles or tail vertices, in one pass over the digraph;
a caller that needs one string joins the chunks.  ``write_atomic`` streams
the chunks into a temp file in the target directory and then renames it
over the target, so the write is atomic: no whole-document string is
built, and a failure midway leaves the target's old bytes and no temp
file.  Each distinct subsidiary datum is formatted once
(``LevelDigraph.per_datum``), however many edges share it.
"""

from __future__ import annotations

import os
import tempfile
from collections.abc import Callable, Iterable, Iterator
from itertools import islice, repeat

from .digraph import LevelDigraph
from .padics import INF, NEG_INF

# vertices, edges, cycles or tail vertices per chunk of text
CHUNK = 256
# between the items of a top-level member's JSON list
_SEP = ",\n    "


def dot_chunks(G: LevelDigraph) -> Iterator[str]:
    """One node per ball labeled "key (level)"; the unique out-edges are
    solid, except that edges failing the subsidiary admission are dashed."""
    names = G.key_strings
    label = f' ({G.level})"];\n'
    if G.subsidiary is None:
        styles = repeat("solid")
    else:
        styles = G.per_datum(lambda d: "solid" if d.passes else "dashed")
    yield "digraph dynamics {\n"
    yield from _chunks(names, lambda batch: "".join(
        [f'  "{k}" [label="{k}{label}' for k in batch]
    ))
    yield from _chunks(zip(names, G.succ, styles), lambda batch: "".join(
        [f'  "{k}" -> "{names[j]}" [style={s}];\n' for k, j, s in batch]
    ))
    yield "}\n"


def json_chunks(G: LevelDigraph) -> Iterator[str]:
    """G with its cycles and tails.  "center" and "rep" repeat the key: a
    ball's key is its canonical center and representative.

    The text is what ``json.dumps(..., indent=2)`` prints for the digraph's
    dict form, plus a newline, written directly because any indent sends
    ``json.dumps`` to its pure-Python encoder.  Keys are ``str(Fraction)``
    (digits, "-" and "/"), so no string needs escaping.
    """
    names = G.key_strings
    if G.subsidiary is None:
        tails = repeat('      "s": null,\n      "passes": null\n    }')
    else:
        tails = G.per_datum(
            lambda d: f'      "s": {d.s_exponent},\n'
            f'      "passes": {"true" if d.passes else "false"},\n'
            '      "bounds": [\n        '
            + ",\n        ".join(map(_bound, d.bound_exponents))
            + "\n      ]\n    }"
        )
    cycles = G.cycles
    yield f'{{\n  "prime": {G.prime},\n  "level": {G.level},\n  "vertices": '
    yield from _json_list(_chunks(names, lambda batch: _SEP.join(
        [f'{{\n      "key": "{k}",\n      "center": "{k}",\n      "rep": "{k}"\n    }}'
         for k in batch]
    )))
    yield ',\n  "edges": '
    yield from _json_list(_chunks(zip(names, G.succ, tails), lambda batch: _SEP.join(
        [f'{{\n      "from": "{k}",\n      "to": "{names[j]}",\n{tail}'
         for k, j, tail in batch]
    )))
    yield ',\n  "cycles": '
    # a cycle has at least one vertex
    yield from _json_list(_chunks(cycles.cycle_indices, lambda batch: _SEP.join(
        ['[\n      "' + '",\n      "'.join([names[i] for i in c]) + '"\n    ]' for c in batch]
    )))
    yield ',\n  "tails": '
    yield from _json_list(_chunks(cycles.tail_indices, lambda batch: _SEP.join(
        [f'"{names[i]}"' for i in batch]
    )))
    yield "\n}\n"


def _chunks(rows: Iterable, text: Callable[[Iterator], str]) -> Iterator[str]:
    """``text`` of successive batches of at most ``CHUNK`` rows, until the
    rows run out (no row's text is empty).  Each batch is an iterator over
    the rows themselves, so no row is stored between its source and its
    text."""
    rows = iter(rows)
    while chunk := text(islice(rows, CHUNK)):
        yield chunk


def _json_list(chunks: Iterable[str]) -> Iterator[str]:
    """A top-level member's JSON list of the ``_SEP``-joined items in
    ``chunks``, laid out as by ``json.dumps(..., indent=2)``."""
    opening = "[\n    "
    for chunk in chunks:
        yield opening
        yield chunk
        opening = _SEP
    yield "\n  ]" if opening is _SEP else "[]"


def _bound(x) -> str:
    if x == INF:
        return '"inf"'
    if x == NEG_INF:
        return '"-inf"'
    return str(int(x))


def write_atomic(path: str, chunks: Iterable[str]) -> None:
    """Write the text ``chunks`` to ``path`` through a temp file in its
    directory, created with the mode ``open(path, "w")`` would give it.  If
    anything fails midway, ``path`` keeps its old bytes and the temp file is
    removed."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            # mkstemp creates the file 0o600; open(path, "w") honours the umask
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(handle.fileno(), 0o666 & ~umask)
            handle.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
