import io
import json
import os
import stat
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_kernel import cycle_balls, edge_map

from padicdyn import cli
from padicdyn.cli import (
    EXIT_ERROR,
    EXIT_OK,
    EXIT_UNDECIDED,
    invocation_from_args,
    main,
    run,
)
from fractions import Fraction

from padicdyn import render
from padicdyn.render import dot_chunks, json_chunks, write_atomic
from padicdyn import (
    Analysis,
    CompactDomain,
    build_digraph,
    cycle_decomposition,
    parse_domain,
    parse_map,
)
from padicdyn import digraph, global_qp, scaling
from padicdyn.config import AnalysisConfig
from padicdyn.digraph import LevelDigraph, SubsidiaryEdgeData
from padicdyn.errors import DecompositionTooLarge, PadicDynError
from padicdyn.padics import INF, NEG_INF, require_prime


def run_cli(args):
    buf = io.StringIO()
    inv = invocation_from_args(args)
    code = run(inv, stdout=buf)
    return code, buf.getvalue()


P7_ARGS = ["-p", "7", "--map", "(x^2-1)/x", "--domain", "B(2,-1)+B(5,-1)"]


def test_digraph_command(tmp_path):
    dot = tmp_path / "g.dot"
    js = tmp_path / "g.json"
    code, out = run_cli(
        P7_ARGS + ["digraph", "--level", "-2", "--dot", str(dot), "--json", str(js)]
    )
    assert code == EXIT_OK
    assert "vertices: 14" in out
    assert "cycle lengths: [2, 6, 6]" in out
    dot_text = dot.read_text()
    assert dot_text.count("->") == 14
    assert '"2" [label="2 (-2)"];' in dot_text
    data = json.loads(js.read_text())
    assert data["prime"] == 7 and data["level"] == -2
    assert len(data["vertices"]) == 14


def test_mp_command():
    code, out = run_cli(P7_ARGS + ["mp"])
    assert code == EXIT_OK
    assert "MeasurePreserving" in out.splitlines()[0]


def test_ergodic_command():
    code, out = run_cli(P7_ARGS + ["ergodic", "--depth", "-6"])
    assert code == EXIT_OK
    assert "NotErgodic at level -2" in out


def test_ergodic_semidecision_exit_code():
    code, out = run_cli(
        ["-p", "3", "--map", "x+1", "--domain", "Zp", "ergodic", "--depth", "-5"]
    )
    assert code == EXIT_UNDECIDED
    assert "SingleCycleToDepth -5" in out


def test_mp_undecided_exit_code():
    # a descent cap of 1 leaves T1 = 9 of the isometry x + 2/3 unseparated
    # from 0, so the classification takes the profile route, where levels l
    # and l - 1 passing is an honest Undecided
    code, out = run_cli(["-p", "3", "--map", "x+2/3", "--domain", "B(0,1)", "mp", "--cap", "1"])
    assert code == EXIT_UNDECIDED
    assert out == "Undecided (all levels down to -3 are unions of cycles)\n"


def test_classify_command():
    code, out = run_cli(
        ["-p", "3", "--map", "(2x^3+x^2+x)/(x^2+1)", "--domain", "Zp-B(4,-2)-B(5,-2)", "classify"]
    )
    assert code == EXIT_OK
    assert "classification: Locally1Lipschitz" in out
    assert "radius exponent l: -2" in out


def test_intrinsic_level_command():
    code, out = run_cli(
        ["-p", "3", "--map", "(2x^3+x^2+x)/(x^2+1)", "--domain", "Zp-B(4,-2)-B(5,-2)", "intrinsic-level"]
    )
    assert code == EXIT_OK
    assert "t0: -2" in out


def test_components_command():
    code, out = run_cli(
        ["-p", "3", "--map", "(2x^3+x^2+x)/(x^2+1)", "--domain", "Zp-B(4,-2)-B(5,-2)",
         "components", "--level", "-2"]
    )
    assert code == EXIT_OK
    assert "component [8]: NotMeasurePreserving" in out
    for k in (0, 3, 6):
        assert f"component [{k}]: MeasurePreserving" in out


def test_global_command():
    code, out = run_cli(
        ["-p", "3", "--map", "(x^4+x^3+2x^2+1)/(x^3-x+1)", "--domain", "Qp", "global"]
    )
    assert code == EXIT_OK
    assert "gate: passed (alpha=0, m=4, n=3)" in out
    assert "N: 1" in out
    assert "invertible local isometry: Yes" in out
    assert "measure preserving: Yes" in out


def test_hensel_command():
    code, out = run_cli(
        ["-p", "7", "--map", "x^2-2", "--domain", "Zp", "hensel", "--seed", "3", "--prec", "2"]
    )
    assert code == EXIT_OK
    assert "root: 10 (mod 7^2)" in out


def test_witness_command():
    code, out = run_cli(P7_ARGS[:4] + ["--domain", "Qp", "witness", "--goal", "ergodicity"])
    assert code == EXIT_OK
    assert "kind: InvariantSphere" in out
    assert "verified at depth 4: ok" in out


def test_subsidiary_command():
    code, out = run_cli(P7_ARGS + ["subsidiary", "--level", "-2"])
    assert code == EXIT_OK
    assert "subsidiary edges kept: 14 of 14" in out
    assert "coincides with full digraph: yes" in out


def test_values_with_a_leading_minus_in_the_equals_form(capsys):
    # argparse takes "--map -x+1" for two options; "--map=-x+1" is one
    assert main(["-p", "3", "--map", "-x+1", "--domain", "Zp", "ergodic", "--depth", "-3"]) == 1
    assert capsys.readouterr().err == "error: argument --map: expected one argument\n"
    assert main(["-p", "3", "--map=-x+1", "--domain", "Zp", "ergodic", "--depth", "-3"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "NotErgodic at level -1 (2 cycles)"
    # -1/2 reaches the lifting test, which x^2 + 1 fails at p = 7; -2 is
    # a root of x^2 + 1 mod 5
    assert main(["-p", "7", "--map", "x^2+1", "hensel", "--seed=-1/2"]) == 1
    assert capsys.readouterr().err == (
        "error: lifting needs |F(seed)| < |F'(seed)|^2: got valuations "
        "v(F(seed))=0, v(F'(seed))=0\n"
    )
    assert main(["-p", "5", "--map", "x^2+1", "hensel", "--seed=-2", "--prec", "3"]) == 0
    # 68 = -2 mod 5 and 68^2 + 1 = 37 * 5^3
    assert capsys.readouterr().out.splitlines()[0] == "root: 68 (mod 5^3)"


def test_error_exit_code(capsys):
    assert main(["-p", "5", "--map", "x +", "--domain", "Zp", "classify"]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert "error:" in err and "offset" in err


def test_a_non_prime_exits_1_after_a_prime_and_after_a_refusal(capsys):
    assert main(["-p", "7", "--map", "x+1", "--domain", "Zp", "classify"]) == EXIT_OK
    capsys.readouterr()
    for _ in range(2):
        assert main(["-p", "9", "--map", "x+1", "--domain", "Zp", "classify"]) == EXIT_ERROR
        assert capsys.readouterr() == ("", "error: p must be a prime: got 9\n")


@pytest.mark.parametrize(
    "argv",
    [P7_ARGS + ["classify"], ["-p", "3", "--map", "x+1/3", "global"],
     ["-p", "5", "--map", "x^2+1", "hensel", "--seed", "2"]],
    ids=["classify", "global", "hensel"],
)
def test_one_op_tests_its_prime_once(argv):
    # the map, the domain and every ball check p; only the first check
    # misses require_prime's memo and runs the Miller-Rabin test
    require_prime.cache_clear()
    assert run_cli(argv)[0] == EXIT_OK
    info = require_prime.cache_info()
    assert info.misses == 1 and info.hits >= 1


def test_a_difference_past_the_ball_cap_is_one_error_line(capsys):
    # Zp - B(1,-1) has p - 1 = 1,000,002 maximal balls at this p
    start = time.perf_counter()
    argv = ["-p", "1000003", "--map", "x+1", "--domain", "Zp-B(1,-1)", "classify"]
    assert main(argv) == EXIT_ERROR
    assert time.perf_counter() - start < 1
    assert capsys.readouterr() == (
        "", "error: difference at level -1 needs 1000002 balls (cap 1000000)\n"
    )


@pytest.mark.parametrize(
    "map_text,domain",
    [("1" * 5000 + "*x", "Zp"), ("x", f"B({'1' * 5000},0)"), ("(x^64)^64", "Zp")],
    ids=["long-map-literal", "long-ball-centre", "nested-powers"],
)
def test_oversized_input_is_one_error_line(capsys, map_text, domain):
    start = time.perf_counter()
    assert main(["-p", "3", "--map", map_text, "--domain", domain, "classify"]) == EXIT_ERROR
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and err.startswith("error: ")


def test_a_ball_count_past_the_printable_digits_is_one_error_line(capsys):
    # B(0, 10000) has 3^10001 level -1 balls, a count of 4,772 digits
    argv = ["-p", "3", "--map", "x+1", "--domain", "B(0,10000)", "mp"]
    assert main(argv) == EXIT_ERROR
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: decomposition at level -1 needs at least 2^15851 balls (cap 1000000)\n"
    # a count of 4,300 digits is printed in full
    with pytest.raises(DecompositionTooLarge, match=r"needs 9{4300} balls"):
        AnalysisConfig().check_ball_budget(10**4300 - 1, "decomposition", 0)


@pytest.mark.parametrize("flag", ["--dot", "--json"])
def test_artifact_in_a_missing_directory_is_one_error_line(tmp_path, capsys, flag):
    path = tmp_path / "missing" / "g.out"
    argv = QUARTIC_ARGS + ["digraph", "--level", "-1", flag, str(path)]
    assert main(argv) == EXIT_ERROR
    out, err = capsys.readouterr()
    assert out.startswith("vertices: 3\n")
    assert err == f"error: cannot write {path}: No such file or directory\n"


def test_artifact_path_that_is_a_directory_is_one_error_line(tmp_path, capsys):
    path = tmp_path / "g.dot"
    path.mkdir()
    assert main(QUARTIC_ARGS + ["subsidiary", "--level", "-1", "--dot", str(path)]) == EXIT_ERROR
    assert capsys.readouterr().err == f"error: cannot write {path}: Is a directory\n"
    # the temporary file beside it is removed
    assert [p.name for p in tmp_path.iterdir()] == ["g.dot"]


def test_a_renderer_failing_midway_leaves_the_old_file(tmp_path):
    path = tmp_path / "g.json"
    path.write_bytes(b"old bytes\n")
    G = build_digraph(parse_map(QUARTIC_ARGS[3], 3), parse_domain("Zp", 3), -6)

    def failing():
        chunks = json_chunks(G)
        # several chunks reach the temp file before the failure
        for _ in range(4):
            yield next(chunks)
        raise RuntimeError("renderer failed")

    with pytest.raises(RuntimeError, match="^renderer failed$"):
        write_atomic(str(path), failing())
    assert path.read_bytes() == b"old bytes\n"
    assert [p.name for p in tmp_path.iterdir()] == ["g.json"]


@pytest.mark.parametrize("field", ["descent_cap", "intrinsic_margin"])
def test_config_rejects_negative_depths(field):
    with pytest.raises(PadicDynError, match=f"^{field} must be at least 0, got -1$"):
        AnalysisConfig(**{field: -1})
    assert getattr(AnalysisConfig(**{field: 0}), field) == 0


def test_compact_command_on_qp_rejected(capsys):
    assert main(["-p", "5", "--map", "x", "--domain", "Qp", "mp"]) == EXIT_ERROR


PUNCTURED_ARGS = ["-p", "3", "--map", "(2x^3+x^2+x)/(x^2+1)", "--domain", "Zp-B(4,-2)-B(5,-2)"]
QUARTIC_ARGS = ["-p", "3", "--map", "(x^4+x^3+2x^2+1)/(x^3-x+1)", "--domain", "Zp"]


def _record_calls(monkeypatch, fn, calls):
    """Append the positional arguments of every call of ``fn`` to ``calls``,
    through every binding of ``fn`` in the loaded padicdyn modules."""
    def recorded(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "padicdyn" or name.startswith("padicdyn."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, recorded)


def _counted_ops():
    """(name, argv, classify calls, levels built or None) of each op whose
    builds are counted."""
    for name, args in (("two-ball", P7_ARGS), ("punctured", PUNCTURED_ARGS),
                       ("quartic", QUARTIC_ARGS)):
        # the two-ball and quartic maps are LocallyIsometric with transport
        # level -1: their mp reads level -1 only, and so does the search
        # for the intrinsic level that the MeasurePreserving line prints
        yield f"{name}-mp", args + ["mp"], 1, None if name == "punctured" else [-1]
        yield f"{name}-components", args + ["components", "--level", "-2"], 1, None
        # the two-ball map's denominator x has a root in Q_p, so its global
        # op stops before the reduction ball is classified
        yield (f"{name}-global", args[:4] + ["--domain", "Qp", "global"],
               int(name != "two-ball"), None)
    yield "shift-third-global", ["-p", "3", "--map", "x+1/3", "global"], 1, None


@pytest.mark.parametrize(
    "argv,classify_calls,built",
    [pytest.param(a, c, b, id=n) for n, a, c, b in _counted_ops()],
)
def test_each_level_is_built_once_per_op(monkeypatch, argv, classify_calls, built):
    builds, classifications = [], []
    _record_calls(monkeypatch, digraph.build_digraph, builds)
    _record_calls(monkeypatch, scaling.classify, classifications)
    code, _ = run_cli(argv)
    assert code == EXIT_OK
    levels = [args[2] for args in builds]
    assert len(levels) == len(set(levels)), sorted(levels)
    assert len(classifications) == classify_calls
    assert bool(levels) == bool(classify_calls)
    if built is not None:
        assert levels == built


@pytest.mark.parametrize(
    "argv,descents,exit_code",
    [
        pytest.param(QUARTIC_ARGS[:4] + ["global"], 1, EXIT_OK, id="quartic-global"),
        pytest.param(PUNCTURED_ARGS[:4] + ["global"], 1, EXIT_OK, id="punctured-global"),
        # the invariant sphere needs N only, which takes no descent
        pytest.param(QUARTIC_ARGS[:4] + ["witness", "--goal", "ergodicity"], 0, EXIT_OK,
                     id="quartic-witness-ergodicity"),
        pytest.param(["-p", "3", "--map", "x/(x^2+1)", "witness", "--goal", "minimality"], 1,
                     EXIT_OK, id="contraction-witness-minimality"),
        # an Undecided scan reads whether classifying the reduction ball
        # certified a root of T1, and descends on T1 no second time
        pytest.param(["-p", "3", "--map", "(2+3x)/3", "global", "--cap", "1"], 0,
                     EXIT_UNDECIDED, id="undecided-scan-global"),
    ],
)
def test_each_op_descends_on_the_denominator_at_most_once(
    monkeypatch, argv, descents, exit_code
):
    # only the global module's descents: classifying the reduction ball
    # descends on Q and T1 over that ball, through scaling's own binding
    calls = []
    descend = global_qp.lower_bound_bF
    monkeypatch.setattr(
        global_qp, "lower_bound_bF", lambda *args: calls.append(args) or descend(*args)
    )
    code, _ = run_cli(argv)
    assert code == exit_code
    assert len(calls) == descents


def test_global_prints_the_gate_before_the_reduction_runs(monkeypatch, capsys):
    def too_large(*args, **kwargs):
        raise DecompositionTooLarge("reduction ball over budget")

    monkeypatch.setattr(global_qp, "Analysis", too_large)
    assert main(QUARTIC_ARGS[:4] + ["global"]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        "gate: passed (alpha=0, m=4, n=3)",
        "denominator roots in Qp: root-free",
        "N: 1",
    ]
    assert captured.err == "error: reduction ball over budget\n"


def test_components_take_no_margin():
    # components read levels t and t - 1 and no intrinsic level
    with pytest.raises(PadicDynError, match="^unrecognized arguments: --margin 1$"):
        invocation_from_args(QUARTIC_ARGS + ["components", "--level", "-2", "--margin", "1"])


def test_global_takes_no_margin():
    # global runs no intrinsic-level search, so a margin would set nothing
    with pytest.raises(PadicDynError, match="^unrecognized arguments: --margin 1$"):
        invocation_from_args(["-p", "3", "--map", "x+1/3", "global", "--margin", "1"])


def test_level_flags_are_exponents():
    # a decimal radius is a parse error, not silently accepted
    with pytest.raises(PadicDynError):
        invocation_from_args(P7_ARGS + ["digraph", "--level", "0.5"])


def test_shared_parser_keeps_no_state_between_calls():
    bad = P7_ARGS + ["digraph", "--level", "0.5"]
    with pytest.raises(PadicDynError) as first:
        invocation_from_args(bad)
    inv = invocation_from_args(P7_ARGS + ["mp", "--cap", "3", "--margin", "1"])
    assert (inv.cap, inv.margin) == (3, 1)
    inv = invocation_from_args(P7_ARGS + ["mp"])
    assert (inv.cap, inv.margin) == (None, None)
    with pytest.raises(PadicDynError) as again:
        invocation_from_args(bad)
    assert str(again.value) == str(first.value)


# values the reader reads, by option type, and values it leaves to argparse
_PLAIN_VALUES = {int: ["7", "-2", "+1", "٣", "-٣", " 5", "1_0"],
                 str: ["x+1", "Zp", "mp", "", "-3", "a b"]}
_EQUALS_VALUES = ["-x+1", "-", "-1/2", "=x"]
_ODD_VALUES = ["0.5", "x", "", "-", "--", "-x", "-x+1", "-1/2", "--map", "nope", "-1\n"]
_ODD_WORDS = ["--", "-h", "--help", "extra", "nocmd", "-p7", "--dep", "--pr", "--do"]


@st.composite
def _argvs(draw):
    """An argv of the plain shape, with up to three changes that mostly take
    it out of that shape: a value argparse reads as a flag or rejects, an
    abbreviated or glued flag, an option repeated, left out or moved to the
    other side of the command, an odd word inserted, or another command."""
    def option(spec):
        flags, _, kind, *_ = spec
        good = [*kind, "nope"] if isinstance(kind, tuple) else _PLAIN_VALUES[kind]
        flag = draw(st.sampled_from(flags))
        value = draw(st.sampled_from([*good, None, None]))
        if value is None:
            value = draw(st.text("-x1٣=", max_size=3))
        if draw(st.booleans()):
            return [flag, value]
        if kind is str and draw(st.booleans()):
            value = draw(st.sampled_from(_EQUALS_VALUES))
        return [f"{flag}={value}"]

    def options(specs):
        chosen = [spec for spec in specs if spec[3] or draw(st.booleans())]
        return [option(spec) for spec in draw(st.permutations(chosen))]

    command = draw(st.sampled_from(list(cli._COMMANDS)))
    top, sub = options(cli._TOP), options(cli._COMMANDS[command])
    for _ in range(draw(st.integers(0, 3))):
        side = draw(st.sampled_from([top, sub]))
        change = draw(st.sampled_from(
            ["value", "flag", "repeat", "drop", "move", "insert", "command"]))
        if change == "command":
            command = draw(st.sampled_from([*cli._COMMANDS, "nocmd"]))
        elif change == "insert":
            word = draw(st.sampled_from([*_ODD_WORDS, *cli._COMMANDS]))
            side.insert(draw(st.integers(0, len(side))), [word])
        elif side:
            i = draw(st.integers(0, len(side) - 1))
            words = side[i]
            if change == "value":
                flag, value = words[0].partition("=")[0], draw(st.sampled_from(_ODD_VALUES))
                side[i] = [flag, value] if draw(st.booleans()) else [f"{flag}={value}"]
            elif change == "flag":  # --map -> --ma, -p 7 -> -p7
                flag, eq, value = words[0].partition("=")
                if flag.startswith("--"):
                    side[i] = [flag[:4] + eq + value, *words[1:]]
                else:
                    side[i] = [flag + value + "".join(words[1:])]
            elif change == "repeat":
                side.insert(i, words)
            elif change == "drop":
                del side[i]
            else:
                del side[i]
                (sub if side is top else top).append(words)
    return [w for words in top for w in words] + [command] + [w for words in sub for w in words]


def test_the_reader_agrees_with_argparse_wherever_it_reads():
    read = []

    @settings(max_examples=1000, deadline=None)
    @given(_argvs())
    # values next to the edge of what the reader reads, and a second command
    @example(["-p", "-٣", "--map", "-x", "classify"])
    @example(["-p", "7", "--map=x", "--domain=--", "mp"])
    @example(["-p", "7", "--map", "x", "witness", "--goal", "nope"])
    @example(["-p", "7", "--map", "x", "classify", "mp"])
    def agrees(argv):
        attrs = cli._read(argv)
        read.append(attrs is not None)
        if attrs is not None:
            assert attrs == vars(cli._build_parser().parse_args(argv))

    agrees()
    assert set(read) == {True, False}


def test_the_reader_reads_every_golden_argv_that_answers():
    golden = json.loads((Path(__file__).parent / "golden" / "cli.json").read_text())
    answered = [case["argv"] for case in golden.values() if case["exit"] in (0, 2)]
    assert answered and all(cli._read(argv) is not None for argv in answered)


def test_the_reader_reads_every_benchmark_argv(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    from workloads import DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS, build

    for name in WORKLOADS:
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            unread = [op.argv for op in build(name, seed).ops if cli._read(list(op.argv)) is None]
            assert not unread, (name, seed, unread[:3])


@pytest.mark.parametrize(
    "argv,flag",
    [(["-p=--", "--map", "x+1", "mp"], "-p/--prime"),
     (P7_ARGS + ["digraph", "--level=--"], "--level"),
     (P7_ARGS + ["digraph", "--level", "-2", "--dot=--"], "--dot"),
     (P7_ARGS + ["mp", "--cap=--"], "--cap"),
     (P7_ARGS[:2] + ["--map=--", "classify"], "--map"),
     (P7_ARGS[:4] + ["--domain=--", "classify"], "--domain"),
     (P7_ARGS[:4] + ["hensel", "--seed=--"], "--seed"),
     (P7_ARGS[:4] + ["witness", "--goal=--"], "--goal")],
    ids=lambda x: x if isinstance(x, str) else None,
)
def test_a_double_dash_value_is_one_error_line(capsys, argv, flag):
    # argparse hands over --flag=-- as an empty list
    assert cli._read(argv) is None
    assert main(argv) == EXIT_ERROR
    assert capsys.readouterr() == ("", f"error: argument {flag}: expected one argument\n")


def test_unusual_spellings_mean_what_argparse_reads():
    plain = invocation_from_args(P7_ARGS + ["ergodic", "--depth", "-3"])
    for argv in (["-p7", *P7_ARGS[2:], "ergodic", "--dep", "-3"],
                 [*P7_ARGS[:2], "--ma", P7_ARGS[3], "--dom", P7_ARGS[5], "ergodic", "--depth=-3"],
                 [*P7_ARGS, "--domain", P7_ARGS[5], "ergodic", "--depth", "-1", "--depth", "-3"]):
        assert invocation_from_args(argv) == plain


def digraph_from_json(text: str) -> dict:
    """Re-read an emitted digraph into a structural form: keys as exact
    rationals, edge map, cycles."""
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
    V = G.vertices
    return {
        "prime": G.prime,
        "level": G.level,
        "vertices": [v.key for v in V],
        "edges": {v.key: w.key for v, w in edge_map(G).items()},
        "cycles": [[v.key for v in c] for c in cycle_balls(G, dec)],
        "tails": [V[i].key for i in dec.tail_indices],
    }


def json_dict_oracle(G: LevelDigraph) -> dict:
    """The digraph's JSON structure, built from Balls and the edge dict."""

    def ext(x):
        return "inf" if x == INF else "-inf" if x == NEG_INF else int(x)

    dec = cycle_decomposition(G)
    V, edge = G.vertices, edge_map(G)
    edges = []
    for i, v in enumerate(V):
        entry = {"from": str(v.key), "to": str(edge[v].key)}
        if G.subsidiary is None:
            entry.update(s=None, passes=None)
        else:
            d = G.subsidiary[i]
            entry.update(s=d.s_exponent, passes=d.passes,
                         bounds=[ext(b) for b in d.bound_exponents])
        edges.append(entry)
    return {
        "prime": G.prime,
        "level": G.level,
        "vertices": [
            {"key": str(v.key), "center": str(v.key), "rep": str(v.key)}
            for v in G.vertices
        ],
        "edges": edges,
        "cycles": [[str(v.key) for v in c] for c in cycle_balls(G, dec)],
        "tails": [str(V[i].key) for i in dec.tail_indices],
    }


def _json_cases():
    p7_map, p7_domain = parse_map("(x^2-1)/x", 7), parse_domain("B(2,-1)+B(5,-1)", 7)
    yield "plain, no tails", build_digraph(p7_map, p7_domain, -2)
    punctured = (parse_map("(2x^3+x^2+x)/(x^2+1)", 3), parse_domain("Zp-B(4,-2)-B(5,-2)", 3))
    yield "plain, with tails", build_digraph(*punctured, -2)
    yield "subsidiary", Analysis(*punctured).subsidiary(-3)
    shift = parse_map("x + 1/3", 3)
    yield "beyond Z_p", build_digraph(shift, CompactDomain.ball(0, 1, 3), -3)
    yield "several chunks", build_digraph(
        parse_map("(x^4+x^3+2x^2+1)/(x^3-x+1)", 3), parse_domain("Zp", 3), -6
    )


def test_json_writer_matches_json_dumps():
    for name, G in _json_cases():
        want = json.dumps(json_dict_oracle(G), indent=2) + "\n"
        assert "".join(json_chunks(G)) == want, name
        if name == "beyond Z_p":
            assert '"1/3"' in want
        if name == "several chunks":
            # the vertices and the edges each span three chunks
            assert len(G.succ) > 2 * render.CHUNK
            lines = "".join(dot_chunks(G)).splitlines()
            assert lines[0] == "digraph dynamics {" and lines[-1] == "}"
            assert lines[1:-1] == [
                f'  "{v.key}" [label="{v.key} ({G.level})"];' for v in G.vertices
            ] + [f'  "{v.key}" -> "{w.key}" [style=solid];' for v, w in edge_map(G).items()]


def test_json_writer_on_hand_built_subsidiary_bounds():
    # no worked instance has a -inf bound (a derivative root at a key)
    f, X = parse_map("(x^2-1)/x", 7), parse_domain("B(2,-1)+B(5,-1)", 7)
    G = build_digraph(f, X, -2)
    bounds = [(0, INF, NEG_INF, -3), (NEG_INF, NEG_INF, INF, 2)]
    data = tuple(
        SubsidiaryEdgeData(i % 3, bounds[i % 2], i % 2 == 0) for i in range(len(G.succ))
    )
    G = LevelDigraph(G.prime, G.level, G.height, G.residues, G.succ, data)
    want = json.dumps(json_dict_oracle(G), indent=2) + "\n"
    assert "".join(json_chunks(G)) == want


def hand_built_subsidiary() -> LevelDigraph:
    """The level -2 digraph of (x^2-1)/x on B(2,-1)+B(5,-1) (14 edges),
    with data that mix one object shared by several edges, distinct objects
    with equal values, and values that differ in one field only."""
    f, X = parse_map("(x^2-1)/x", 7), parse_domain("B(2,-1)+B(5,-1)", 7)
    G = build_digraph(f, X, -2)
    shared = SubsidiaryEdgeData(0, (0, INF, NEG_INF, -3), True)
    data = [
        shared,
        SubsidiaryEdgeData(1, (NEG_INF, NEG_INF, INF, 2), False),
        shared,
        SubsidiaryEdgeData(1, (NEG_INF, NEG_INF, INF, 2), False),
        # differs from shared in passes, in one bound, in s
        SubsidiaryEdgeData(0, (0, INF, NEG_INF, -3), False),
        SubsidiaryEdgeData(0, (0, INF, INF, -3), True),
        SubsidiaryEdgeData(2, (0, INF, NEG_INF, -3), True),
    ]
    data = tuple(data[i % len(data)] for i in range(len(G.succ)))
    assert len({id(d) for d in data}) == 6 and len(set(data)) == 5
    return LevelDigraph(G.prime, G.level, G.height, G.residues, G.succ, data)


def test_outputs_format_each_edge_by_its_own_datum(monkeypatch, tmp_path):
    # each output is checked against a per-edge oracle, so a memo keyed by
    # anything coarser than the datum itself shows up as a wrong line
    G = hand_built_subsidiary()
    V, data = G.vertices, G.subsidiary
    pairs = [(V[i].key, V[j].key) for i, j in enumerate(G.succ)]

    monkeypatch.setattr(Analysis, "subsidiary", lambda self, t: G)
    code, out = run_cli(P7_ARGS + ["subsidiary", "--level", "-2"])
    assert code == EXIT_OK
    assert [line for line in out.splitlines() if line.startswith("edge ")] == [
        f"edge {a} -> {b}: s={d.s_exponent} bounds={list(d.bound_exponents)} "
        f"passes={'yes' if d.passes else 'no'}"
        for (a, b), d in zip(pairs, data)
    ]

    dot = "".join(dot_chunks(G))
    assert [line for line in dot.splitlines() if "->" in line] == [
        f'  "{a}" -> "{b}" [style={"solid" if d.passes else "dashed"}];'
        for (a, b), d in zip(pairs, data)
    ]
    assert "dashed" in dot and "solid" in dot

    assert "".join(json_chunks(G)) == json.dumps(json_dict_oracle(G), indent=2) + "\n"


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=oct)
def test_artifacts_get_the_mode_of_a_plain_open(tmp_path, umask):
    old = os.umask(umask)
    try:
        code, _ = run_cli(P7_ARGS + ["digraph", "--level", "-2", "--dot",
                                     str(tmp_path / "g.dot"), "--json", str(tmp_path / "g.json")])
        with open(tmp_path / "plain", "w"):
            pass
    finally:
        os.umask(old)
    assert code == EXIT_OK
    want = 0o666 & ~umask
    assert stat.S_IMODE((tmp_path / "plain").stat().st_mode) == want
    for name in ("g.dot", "g.json"):
        assert stat.S_IMODE((tmp_path / name).stat().st_mode) == want, name


def test_json_round_trip():
    f = parse_map("(x^2-1)/x", 7)
    X = parse_domain("B(2,-1)+B(5,-1)", 7)
    G = Analysis(f, X).subsidiary(-2)
    text = "".join(json_chunks(G))
    loaded = digraph_from_json(text)
    direct = structural_form(G)
    assert loaded["prime"] == direct["prime"]
    assert loaded["level"] == direct["level"]
    assert loaded["vertices"] == direct["vertices"]
    assert loaded["edges"] == direct["edges"]
    assert loaded["cycles"] == direct["cycles"]
    assert loaded["tails"] == direct["tails"]


def test_byte_identical_reruns(tmp_path):
    out1, out2 = io.StringIO(), io.StringIO()
    args = P7_ARGS + ["digraph", "--level", "-2",
                      "--dot", str(tmp_path / "a.dot"), "--json", str(tmp_path / "a.json")]
    run(invocation_from_args(args), stdout=out1)
    dot1 = (tmp_path / "a.dot").read_bytes()
    json1 = (tmp_path / "a.json").read_bytes()
    run(invocation_from_args(args), stdout=out2)
    assert out1.getvalue() == out2.getvalue()
    assert (tmp_path / "a.dot").read_bytes() == dot1
    assert (tmp_path / "a.json").read_bytes() == json1


def test_invocation_dataclass_roundtrip():
    inv = invocation_from_args(P7_ARGS + ["digraph", "--level", "-2"])
    assert vars(inv) == {
        "prime": 7,
        "map": "(x^2-1)/x",
        "domain": "B(2,-1)+B(5,-1)",
        "command": "digraph",
        "level": -2,
        "depth": None,
        "dot_path": None,
        "json_path": None,
        "margin": None,
        "cap": None,
        "seed": None,
        "precision": None,
        "goal": None,
    }
