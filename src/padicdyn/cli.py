"""Command-line front end.

One analysis per invocation: read argv with the option table (argparse
only for help, unusual spellings and usage errors), parse the map and
domain, dispatch, print a text report, optionally write DOT/JSON
artifacts.  Exit status 0 on a decided verdict, 2 on honest semi-decisions
(Undecided, single-cycle scans that only certify to a depth), 1 on errors.
"""

from __future__ import annotations

import dataclasses
import sys
from functools import cache
from importlib import import_module
from operator import attrgetter
from types import SimpleNamespace

from .config import DEFAULT_CONFIG, AnalysisConfig
from .errors import PadicDynError
from .parsing import QP_GLOBAL, parse_domain, parse_map, parse_seed

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNDECIDED = 2


# The options, read by _read from a plain argv and by argparse from any
# other: (flags, dest, type, required, default, help); a tuple type is the
# choices of a string.  A command's options follow its name in argv.
_TOP = (
    (("-p", "--prime"), "prime", int, True, None, "the prime p"),
    (("--map",), "map", str, True, None, "rational map, e.g. '(x^2-1)/x'"),
    (("--domain",), "domain", str, False, "Qp",
     "domain: 'Zp', 'B(c,t)' combined with + and -, or 'Qp'"),
)
_LEVEL = (("--level",), "level", int, True, None, "level exponent t")
_GRAPH = ((("--dot",), "dot_path", str, False, None, "write the digraph as DOT"),
          (("--json",), "json_path", str, False, None, "write the digraph as JSON"))
_MARGIN = (("--margin",), "margin", int, False, None, "intrinsic-level guard margin")
_CAP = (("--cap",), "cap", int, False, None, "descent depth cap")
_COMMANDS = {
    "classify": (_CAP,),
    "radius": (_CAP,),
    "digraph": (_LEVEL, *_GRAPH, _CAP),
    "subsidiary": (_LEVEL, *_GRAPH, _CAP),
    "intrinsic-level": (_MARGIN, _CAP),
    "mp": (_MARGIN, _CAP),
    "ergodic": ((("--depth",), "depth", int, True, None, "deepest level scanned"), _CAP),
    "components": (_LEVEL, _CAP),
    "global": (_CAP,),
    "hensel": ((("--seed",), "seed", str, True, None, "integer or rational seed"),
               (("--prec",), "precision", int, False, 12, None)),
    "witness": (_CAP, (("--goal",), "goal", ("minimality", "ergodicity"), True, None, None)),
}
_OPTIONS = (_TOP, *_COMMANDS.values())
_TOP_FLAGS = {flag: spec for spec in _TOP for flag in spec[0]}
# what _read needs of each command: its flags, the dests argv must give, and
# the namespace before argv is read, where another command's options are None
_READERS = {
    name: (
        {flag: spec for spec in options for flag in spec[0]},
        {spec[1] for spec in _TOP + options if spec[3]},
        {**dict.fromkeys(spec[1] for opts in _OPTIONS for spec in opts),
         **{spec[1]: spec[4] for spec in _TOP + options}, "command": name},
    )
    for name, options in _COMMANDS.items()
}


def _read(argv: list[str]) -> dict | None:
    """The attributes of a plain argv: padicdyn's options, the command, then
    the command's options, each flag exact and given once as ``--flag value``
    or ``--flag=value``, with a value that argparse reads the same way.  None
    for any other argv, which argparse reads."""
    flags, reader, values, args = _TOP_FLAGS, None, {}, iter(argv)
    for arg in args:
        flag, eq, value = arg.partition("=")
        spec = flags.get(flag)
        if spec is None:
            if reader is not None or arg not in _READERS:
                return None
            reader = _READERS[arg]
            flags = reader[0]
            continue
        if not eq:
            value = next(args, None)
            # argparse reads any other value with a leading "-" as a flag
            if value is None or value[:1] == "-" and not value[1:].isdecimal():
                return None
        elif value == "--":  # argparse drops it
            return None
        _, dest, kind = spec[:3]
        if dest in values:
            return None
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                return None
        elif kind is not str and value not in kind:
            return None
        values[dest] = value
    if reader is None or not reader[1] <= values.keys():
        return None
    return {**reader[2], **values}


@cache
def _build_parser():
    """The argument parser of the option table, built on first use and
    shared by every call."""
    import argparse

    class Parser(argparse.ArgumentParser):
        """Reports bad argv as a PadicDynError: one ``error:`` line, status 1."""

        def error(self, message):
            raise PadicDynError(message)

    def add(parser, options):
        for flags, dest, kind, required, default, text in options:
            parser.add_argument(
                *flags, dest=dest, type=int if kind is int else None,
                choices=kind if isinstance(kind, tuple) else None,
                required=required, default=default, help=text,
            )
        return parser

    parser = add(Parser(prog="padicdyn",
                        description="Exact analysis of rational map dynamics over Q_p"), _TOP)
    # the options of one command are None in another command's namespace
    parser.set_defaults(**dict.fromkeys(spec[1] for opts in _OPTIONS[1:] for spec in opts))
    sub = parser.add_subparsers(dest="command", required=True)
    for name, options in _COMMANDS.items():
        add(sub.add_parser(name), options)
    return parser


def invocation_from_args(argv: list[str]) -> SimpleNamespace:
    """The parsed command line: every option of every command is an
    attribute, None where the command does not take it."""
    attrs = _read(argv)
    if attrs is None:
        attrs = vars(_build_parser().parse_args(argv))
        for opts in _OPTIONS:
            for spec in opts:
                # argparse reads --flag=-- as a list of no values
                if isinstance(attrs[spec[1]], list):
                    raise PadicDynError(f"argument {'/'.join(spec[0])}: expected one argument")
    return SimpleNamespace(**attrs)


def _config_for(inv: SimpleNamespace) -> AnalysisConfig:
    cfg = DEFAULT_CONFIG
    updates = {}
    if inv.margin is not None:
        updates["intrinsic_margin"] = inv.margin
    if inv.cap is not None:
        updates["descent_cap"] = inv.cap
    return dataclasses.replace(cfg, **updates) if updates else cfg


@cache
def _module(name: str):
    """The library module ``name``, imported by the first command that needs
    it, so a command loads only its own modules.  Later calls are one cache
    hit; an import statement in ``run`` would resolve the package each time."""
    return import_module(f".{name}", __package__)


def _emit_graph(inv: SimpleNamespace, G, out) -> None:
    if inv.dot_path:
        _write(inv.dot_path, _module("render").dot_chunks(G))
        out(f"dot written: {inv.dot_path}")
    if inv.json_path:
        _write(inv.json_path, _module("render").json_chunks(G))
        out(f"json written: {inv.json_path}")


def _write(path: str, chunks) -> None:
    try:
        _module("render").write_atomic(path, chunks)
    except OSError as exc:
        raise PadicDynError(f"cannot write {path}: {exc.strerror or exc}") from None


def run(inv: SimpleNamespace, stdout=None) -> int:
    """Execute one invocation; returns the exit status."""
    stdout = stdout if stdout is not None else sys.stdout

    def out(line: str):
        print(line, file=stdout)

    cfg = _config_for(inv)
    p = inv.prime
    f = parse_map(inv.map, p)
    domain = parse_domain(inv.domain, p)

    if domain == QP_GLOBAL and inv.command not in ("global", "witness", "hensel"):
        raise PadicDynError(
            f"command '{inv.command}' needs a compact domain, not Qp"
        )

    if inv.command == "hensel":
        if f.n > 0:
            raise PadicDynError(
                "hensel lifts polynomial roots: give a map with a constant denominator"
            )
        res = _module("hensel").hensel_lift(f.P, p, parse_seed(inv.seed), inv.precision)
        out(f"root: {res.root} (mod {p}^{res.precision_exponent})")
        out(f"distance bound exponent: {res.bound_exponent}")
        out(f"newton steps: {res.steps}")
        return EXIT_OK

    if inv.command == "witness":
        global_qp = _module("global_qp")
        goal = global_qp.MINIMALITY if inv.goal == "minimality" else global_qp.ERGODICITY
        w = global_qp.global_obstruction(f, goal, cfg)
        out(f"kind: {w.kind}")
        out(f"case: {w.case_tag}")
        out(f"region: {w.region}")
        if w.image_region is not None:
            out(f"image region: {w.image_region}")
        if w.sphere_exponent is not None:
            out(
                f"spheres from exponent {w.sphere_exponent} keep norm >= "
                f"p^{w.min_image_exponent}"
            )
        out(f"derived levels: {w.derived_levels}")
        # a fixed label: the proof covers every depth
        out(f"verified at depth 4: {'ok' if w.verified else 'FAILED'}")
        return EXIT_OK if w.verified else EXIT_ERROR

    if inv.command == "global":
        global_qp = _module("global_qp")
        gate = global_qp.degree_gate(f, cfg)
        out(
            f"gate: {'passed' if gate.gate_passed else 'failed'} "
            f"(alpha={gate.alpha}, m={gate.m}, n={gate.n})"
        )
        out(f"denominator roots in Qp: {gate.q1_certification}")
        if not gate.gate_passed:
            out("invertible local isometry: No")
            out("measure preserving: No")
            return EXIT_OK
        out(f"N: {gate.N_exponent}")
        # the lines above stay on stdout when the reduction raises
        g = global_qp.global_check(f, cfg, gate)
        out(f"forward invariant ball B(0,{gate.N_exponent - 1}): "
            f"{_yesno(g.forward_invariant_ball)}")
        out(f"invertible local isometry: {g.isometry} ({g.isometry_reason})")
        out(f"measure preserving: {g.measure_preserving} ({g.measure_preserving_reason})")
        if "Undecided" in (g.isometry, g.measure_preserving):
            return EXIT_UNDECIDED
        return EXIT_OK

    if inv.command in ("classify", "radius"):
        # both read the classification only, so no Analysis is built
        report = _module("scaling").classify(f, domain, cfg)

    if inv.command == "classify":
        out(f"classification: {report.classification}"
            + (f" (exponent {report.classification_exponent})"
               if report.classification_exponent is not None else ""))
        out(f"radius exponent l: {report.radius_exponent}")
        out(f"derivative root-free: {_yesno(report.derivative_root_free)}")
        exps = sorted(report.scalar_profile)
        out(f"scalar exponents at level {report.radius_exponent}: {exps}")
        if report.scalar_upper_bounds:
            out(
                "certified upper bounds on "
                f"{sum(report.scalar_upper_bounds.values())} ball(s) near derivative roots"
            )
        return EXIT_OK

    if inv.command == "radius":
        out(f"radius exponent l: {report.radius_exponent}")
        out(f"b(Q) exponent: {report.b_q_exponent}")
        out(f"b(T1) exponent: {report.b_t1_exponent}")
        out(f"classification: {report.classification}")
        return EXIT_OK

    digraph = _module("digraph")
    analysis = digraph.Analysis(f, domain, cfg)

    if inv.command == "digraph":
        G = analysis.digraph(inv.level)
        dec = G.cycles
        names = G.key_strings
        out(f"vertices: {len(G.vertices)}")
        out(f"cycle lengths: {dec.cycle_lengths}")
        out(f"tail vertices: {len(dec.tail_indices)}")
        # a functional graph on finitely many vertices has a cycle
        out("\n".join(
            ["cycle: " + " -> ".join([names[i] for i in cyc]) for cyc in dec.cycle_indices]
        ))
        _emit_graph(inv, G, out)
        return EXIT_OK

    if inv.command == "subsidiary":
        G = analysis.subsidiary(inv.level)
        names = G.key_strings
        kept = sum(G.per_datum(attrgetter("passes")))
        out(f"vertices: {len(G.vertices)}")
        out(f"subsidiary edges kept: {kept} of {len(G.vertices)}")
        out(f"coincides with full digraph: {_yesno(G.is_subsidiary_equal)}")
        data = G.per_datum(
            lambda d: f"s={d.s_exponent} bounds={list(d.bound_exponents)} "
            f"passes={_yesno(d.passes)}"
        )
        out("\n".join(
            [f"edge {k} -> {names[j]}: {d}" for k, j, d in zip(names, G.succ, data)]
        ))
        _emit_graph(inv, G, out)
        return EXIT_OK

    if inv.command == "intrinsic-level":
        t0 = analysis.intrinsic_level
        margin = cfg.intrinsic_margin
        levels = ", ".join(str(t0 - j) for j in range(margin + 1))
        out(f"t0: {t0} (coincidence certified at levels {levels})")
        return EXIT_OK

    if inv.command == "mp":
        verdict = analysis.mp()
        if verdict.kind == digraph.MEASURE_PRESERVING:
            out("MeasurePreserving")
            try:  # the verdict stands without t0, whose search can fail
                out(f"certified via intrinsic level {analysis.intrinsic_level}")
            except PadicDynError as exc:
                out(f"no intrinsic level t0: {exc}")
            return EXIT_OK
        if verdict.kind == digraph.UNDECIDED:
            out(f"Undecided (all levels down to {verdict.scanned_to} are unions of cycles)")
            return EXIT_UNDECIDED
        out(
            f"NotMeasurePreserving at level {verdict.witness_level}: ball "
            f"{verdict.witness_ball.key} has in-degree {verdict.in_degree}"
        )
        return EXIT_OK

    if inv.command == "ergodic":
        verdict = analysis.ergodic(inv.depth)
        if verdict.kind == digraph.NOT_ERGODIC:
            out(f"NotErgodic at level {verdict.level} ({verdict.cycle_count} cycles)")
            out("minimality: No (same criterion)")
            return EXIT_OK
        out(f"SingleCycleToDepth {verdict.depth}")
        out("ergodic and minimal as far as scanned; no finite certificate exists")
        return EXIT_UNDECIDED

    if inv.command == "components":
        comps = analysis.components(inv.level)
        for c in comps:
            balls = ", ".join(str(b.key) for b in c.cycle)
            out(f"component [{balls}]: {c.verdict} (route: {c.route})")
        return EXIT_OK

    raise PadicDynError(f"unknown command {inv.command!r}")


def _yesno(flag) -> str:
    if flag is None:
        return "unknown"
    return "yes" if flag else "no"


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        inv = invocation_from_args(argv)
        return run(inv)
    except PadicDynError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
