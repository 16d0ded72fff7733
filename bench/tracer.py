"""Spans around the calls into each padicdyn layer, recorded from outside.

The tracer wraps every public function of the layer modules, and the
`RationalMap.eval` and `derivative_value` methods, in memory.  A name
imported into several modules is bound in each of them, so every binding
is replaced (for example `build_digraph` in cli, digraph and global_qp).  Each call records a span:
name, start, end, parent span and op id.  A span's self time is its
duration minus the durations of its direct children.  The library is
single-threaded and has no queue, so no layer ever waits: the spans give
busy time and work counts only.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter, defaultdict

# padics, errors and config are leaf value types without spans: their cost
# shows in their callers' self time.
LAYERS = (
    "cli", "parsing", "maps", "polynomials", "domains",
    "scaling", "digraph", "global_qp", "hensel", "render",
)
METHODS = (("maps", "RationalMap", "eval"), ("maps", "RationalMap", "derivative_value"))

# name, unit, better: the per-layer metrics, in BENCHMARK.json order
METRICS = (
    ("cli.ops", "count", "higher"),
    ("cli.self_s", "s", "lower"),
    ("parsing.calls", "count", "lower"),
    ("parsing.self_s", "s", "lower"),
    ("maps.evals", "count", "lower"),
    ("maps.eval_self_s", "s", "lower"),
    ("maps.normalize_self_s", "s", "lower"),
    ("polynomials.poly_evals", "count", "lower"),
    ("polynomials.poly_eval_self_s", "s", "lower"),
    ("polynomials.taylor_shifts", "count", "lower"),
    ("polynomials.taylor_shift_self_s", "s", "lower"),
    ("digraph.subsidiary_edges", "count", "lower"),
    ("digraph.subsidiary_self_s", "s", "lower"),
    ("domains.balls_decomposed", "count", "lower"),
    ("domains.decompose_self_s", "s", "lower"),
    ("domains.locates", "count", "lower"),
    ("domains.locate_self_s", "s", "lower"),
    ("digraph.builds", "count", "lower"),
    ("digraph.vertices_built", "count", "lower"),
    ("digraph.build_self_s", "s", "lower"),
    ("digraph.cycle_self_s", "s", "lower"),
    ("digraph.levels_scanned", "count", "lower"),
    ("digraph.distinct_build_ratio", "ratio", "higher"),
    ("scaling.classify_calls", "count", "lower"),
    ("scaling.classify_self_s", "s", "lower"),
    ("scaling.descents", "count", "lower"),
    ("scaling.descent_self_s", "s", "lower"),
    ("scaling.errors", "count", "lower"),
    ("global_qp.self_s", "s", "lower"),
    ("global_qp.witness_self_s", "s", "lower"),
    ("global_qp.errors", "count", "lower"),
    ("hensel.lifts", "count", "lower"),
    ("hensel.newton_steps", "count", "lower"),
    ("hensel.self_s", "s", "lower"),
    ("hensel.errors", "count", "lower"),
    ("render.bytes", "bytes", "lower"),
    ("render.self_s", "s", "lower"),
)


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


class Tracer:
    """Use as a context manager around the traced calls; `begin_op` starts
    a new op id for the spans that follow."""

    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.failed = array("b")
        self.stack: list[int] = []
        self.current_op = -1
        self.work = Counter()
        self.builds: list[tuple] = []  # (op, prime, map, domain, level)
        self._undo: list[tuple] = []

    def begin_op(self) -> None:
        self.current_op += 1

    # -- patching -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        hooks = self._work_hooks()
        wrapped = {}
        for layer in LAYERS:
            module = importlib.import_module(f"padicdyn.{layer}")
            for attr, fn in vars(module).items():
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not attr.startswith("_")):
                    name = f"{layer}.{attr}"
                    wrapped[fn] = self._wrap(name, fn, hooks.get(name))
        for name, module in list(sys.modules.items()):
            if name != "padicdyn" and not name.startswith("padicdyn."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._set(module, attr, wrapped[value])
        for layer, cls_name, attr in METHODS:
            cls = getattr(importlib.import_module(f"padicdyn.{layer}"), cls_name)
            self._set(cls, attr, self._wrap(f"{layer}.{cls_name}.{attr}", vars(cls)[attr]))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, name: str, fn, after=None):
        """`after(args, kwargs, result)` runs once the call has returned."""
        name_id = len(self.names)
        self.names.append(name)
        clock = time.perf_counter_ns
        stack = self.stack

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_of.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.current_op)
            self.start.append(0)
            self.end.append(0)
            self.failed.append(1)
            stack.append(idx)
            begin = clock()
            try:
                result = fn(*args, **kwargs)
                self.failed[idx] = 0
                return result
            finally:
                self.end[idx] = clock()
                self.start[idx] = begin
                stack.pop()
                if after is not None and not self.failed[idx]:
                    after(args, kwargs, result)

        traced.__wrapped__ = fn
        return traced

    def _work_hooks(self) -> dict:
        """Work counts taken from a call's arguments and result, at the same
        boundary as its span."""
        def build(args, kwargs, G):
            self.work["vertices_built"] += len(G.vertices)
            f, X = _arg(args, kwargs, 0, "f"), _arg(args, kwargs, 1, "X")
            t = _arg(args, kwargs, 2, "t")
            self.builds.append((self.current_op, f.prime, str(f), str(X), t))

        def decompose(args, kwargs, balls):
            self.work["balls_decomposed"] += len(balls)

        def lift(args, kwargs, res):
            self.work["newton_steps"] += res.steps

        def rendered(args, kwargs, text):
            self.work["render_bytes"] += len(text.encode())

        return {
            "digraph.build_digraph": build,
            "domains.decompose": decompose,
            "hensel.hensel_lift": lift,
            "render.digraph_to_dot": rendered,
            "render.digraph_to_json": rendered,
        }

    # -- results --------------------------------------------------------

    def span_count(self) -> int:
        return len(self.start)

    def self_ns(self) -> list[int]:
        child = [0] * len(self.start)
        for i, parent in enumerate(self.parent):
            if parent >= 0:
                child[parent] += self.end[i] - self.start[i]
        return [self.end[i] - self.start[i] - child[i] for i in range(len(child))]

    def metrics(self) -> dict[str, float]:
        self_ns = self.self_ns()
        calls, name_self = Counter(), Counter()
        layer_self, layer_errors = Counter(), Counter()
        for i, name_id in enumerate(self.name_of):
            name = self.names[name_id]
            layer = name.split(".", 1)[0]
            calls[name] += 1
            name_self[name] += self_ns[i]
            layer_self[layer] += self_ns[i]
            parent = self.parent[i]
            crosses = parent < 0 or self.names[self.name_of[parent]].split(".", 1)[0] != layer
            if self.failed[i] and crosses:
                layer_errors[layer] += 1

        def secs(*names):
            return sum(name_self[n] for n in names) / 1e9

        levels = defaultdict(set)
        for op, *_, t in self.builds:
            levels[op].add(t)
        builds = calls["digraph.build_digraph"]
        m = {
            "cli.ops": calls["cli.run"],
            "cli.self_s": layer_self["cli"] / 1e9,
            "parsing.calls": sum(c for n, c in calls.items() if n.startswith("parsing.")),
            "parsing.self_s": layer_self["parsing"] / 1e9,
            "maps.evals": calls["maps.RationalMap.eval"],
            "maps.eval_self_s": secs("maps.RationalMap.eval"),
            "maps.normalize_self_s": secs("maps.normalize_map"),
            "polynomials.poly_evals": calls["polynomials.poly_eval"],
            "polynomials.poly_eval_self_s": secs("polynomials.poly_eval"),
            "polynomials.taylor_shifts": calls["polynomials.taylor_shift"],
            "polynomials.taylor_shift_self_s": secs("polynomials.taylor_shift"),
            "digraph.subsidiary_edges": calls["digraph.subsidiary_edge_data"],
            "digraph.subsidiary_self_s": secs(
                "digraph.build_subsidiary", "digraph.subsidiary_edge_data", "digraph.s_exponent"),
            "domains.balls_decomposed": self.work["balls_decomposed"],
            "domains.decompose_self_s": secs("domains.decompose"),
            "domains.locates": calls["domains.locate"],
            "domains.locate_self_s": secs("domains.locate"),
            "digraph.builds": builds,
            "digraph.vertices_built": self.work["vertices_built"],
            "digraph.build_self_s": secs("digraph.build_digraph"),
            "digraph.cycle_self_s": secs("digraph.cycle_decomposition"),
            "digraph.levels_scanned": sum(len(v) for v in levels.values()),
            "digraph.distinct_build_ratio": (
                len({b[1:] for b in self.builds}) / builds if builds else 1.0),
            "scaling.classify_calls": calls["scaling.classify"],
            "scaling.classify_self_s": secs("scaling.classify"),
            "scaling.descents": calls["scaling.lower_bound_bF"],
            "scaling.descent_self_s": secs("scaling.lower_bound_bF"),
            "scaling.errors": layer_errors["scaling"],
            "global_qp.self_s": layer_self["global_qp"] / 1e9,
            "global_qp.witness_self_s": secs("global_qp.global_obstruction"),
            "global_qp.errors": layer_errors["global_qp"],
            "hensel.lifts": calls["hensel.hensel_lift"],
            "hensel.newton_steps": self.work["newton_steps"],
            "hensel.self_s": layer_self["hensel"] / 1e9,
            "hensel.errors": layer_errors["hensel"],
            "render.bytes": self.work["render_bytes"],
            "render.self_s": layer_self["render"] / 1e9,
        }
        if list(m) != [name for name, _, _ in METRICS]:
            raise RuntimeError("per-layer metrics out of step with METRICS")
        return m

    def dump(self, path: str) -> None:
        """Write every span as one CSV line, gzip-compressed."""
        self_ns = self.self_ns()
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span,name,start_ns,end_ns,self_ns,parent,op,failed\n")
            for i in range(len(self.start)):
                out.write(
                    f"{i},{self.names[self.name_of[i]]},{self.start[i]},{self.end[i]},"
                    f"{self_ns[i]},{self.parent[i]},{self.op[i]},{self.failed[i]}\n"
                )
