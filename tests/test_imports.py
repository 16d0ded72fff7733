"""The package loads its modules on first use.

``import padicdyn`` imports none of the library's modules, and each CLI
command imports only the modules it runs, so a short command does not pay
for compiling the digraph, global and rendering code.  The import-graph
checks run in a fresh interpreter each, whose ``sys.modules`` starts clean.
The lazy exports resolve to the objects of their defining modules, and a
patched module binding is seen through them and through the CLI's
per-command imports.
"""

from __future__ import annotations

import ast
import importlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from test_cli import _record_calls

import padicdyn
from padicdyn import cli, hensel, scaling

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "padicdyn"
KERNELS = {"digraph", "global_qp", "render", "hensel", "scaling"}

MAP = ["-p", "3", "--map", "x^2+1", "--domain", "Zp"]
CLASSIFY = MAP + ["classify"]
RADIUS = MAP + ["radius"]
HENSEL = ["-p", "5", "--map", "x^2+1", "hensel", "--seed", "2"]
DIGRAPH = MAP + ["digraph", "--level", "-2"]
# one invocation of every subcommand
EVERY_COMMAND = [
    CLASSIFY, RADIUS, DIGRAPH, MAP + ["subsidiary", "--level", "-2"],
    MAP + ["intrinsic-level"], MAP + ["mp"], MAP + ["ergodic", "--depth", "-3"],
    MAP + ["components", "--level", "-2"], MAP[:2] + ["--map", "x+1", "global"], HENSEL,
    MAP[:2] + ["--map", "x+1", "witness", "--goal", "ergodicity"],
]


def _fresh_json(code: str, value: str):
    """The JSON value of the expression ``value`` after ``code`` runs in a
    fresh interpreter (under -O when this one runs under it)."""
    script = (
        f"import sys\nsys.path.insert(0, {str(ROOT / 'src')!r})\n{code}\n"
        f"import json\nprint(json.dumps({value}))\n"
    )
    proc = subprocess.run(
        [sys.executable, *["-O"] * sys.flags.optimize, "-c", script],
        capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _loaded_after(code: str) -> set[str]:
    """The padicdyn modules loaded, by short name, after ``code`` runs in a
    fresh interpreter."""
    loaded = _fresh_json(code, "sorted(m for m in sys.modules if m.startswith('padicdyn.'))")
    return {name.split(".", 1)[1] for name in loaded}


def test_the_package_alone_loads_no_module():
    assert _loaded_after("import padicdyn") == set()


def test_parsing_any_command_loads_no_kernel():
    loaded = _loaded_after(
        "import padicdyn.cli\n"
        f"for argv in {EVERY_COMMAND!r}:\n"
        "    padicdyn.cli.invocation_from_args(argv)\n"
    )
    assert "cli" in loaded
    assert not loaded & KERNELS


def test_reading_any_command_builds_no_argument_parser():
    read = _fresh_json(
        "import padicdyn.cli\n"
        f"for argv in {EVERY_COMMAND!r}:\n"
        "    padicdyn.cli.invocation_from_args(argv)\n",
        "['argparse' in sys.modules, padicdyn.cli._build_parser.cache_info().misses]",
    )
    assert read == [False, 0]


HELP = """\
usage: padicdyn [-h] -p PRIME --map MAP [--domain DOMAIN]
                {classify,radius,digraph,subsidiary,intrinsic-level,mp,ergodic,components,global,hensel,witness}
                ...

Exact analysis of rational map dynamics over Q_p

positional arguments:
  {classify,radius,digraph,subsidiary,intrinsic-level,mp,ergodic,components,global,hensel,witness}

options:
  -h, --help            show this help message and exit
  -p PRIME, --prime PRIME
                        the prime p
  --map MAP             rational map, e.g. '(x^2-1)/x'
  --domain DOMAIN       domain: 'Zp', 'B(c,t)' combined with + and -, or 'Qp'
"""


def test_help_and_usage_errors_are_the_argument_parser_texts():
    texts = _fresh_json(
        "import contextlib, io, os\n"
        "os.environ['COLUMNS'] = '80'\n"
        "import padicdyn.cli\n"
        "texts = []\n"
        f"for argv in {[['--help'], DIGRAPH[:-1] + ['0.5']]!r}:\n"
        "    out, err = io.StringIO(), io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "        try:\n"
        "            code = padicdyn.cli.main(argv)\n"
        "        except SystemExit as exc:\n"
        "            code = exc.code\n"
        "    texts.append([code, out.getvalue(), err.getvalue()])\n",
        "texts",
    )
    assert texts == [[0, HELP, ""], [1, "", "error: argument --level: invalid int value: '0.5'\n"]]


@pytest.mark.parametrize(
    "argv,needs",
    [
        pytest.param(CLASSIFY, {"scaling"}, id="classify"),
        pytest.param(RADIUS, {"scaling"}, id="radius"),
        pytest.param(HENSEL, {"hensel"}, id="hensel"),
        # the guard sees a loaded kernel: digraph reads scaling's report
        pytest.param(DIGRAPH, {"digraph", "scaling"}, id="digraph"),
    ],
)
def test_each_command_loads_only_the_kernels_it_runs(argv, needs):
    loaded = _loaded_after(
        "import padicdyn.cli\n"
        f"if padicdyn.cli.main({argv!r}):\n"
        "    sys.exit('command failed')\n"
    )
    assert loaded & KERNELS == needs


def test_submodules_import_through_the_package_from_a_clean_start():
    loaded = _loaded_after("from padicdyn import digraph, global_qp, scaling")
    assert {"digraph", "global_qp", "scaling"} <= loaded


def _definitions(path: Path) -> set[str]:
    """The names bound at the top level of a module by def, class or
    assignment: what it defines, as opposed to what it imports."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


@pytest.mark.parametrize("name", padicdyn.__all__)
def test_each_export_is_the_object_of_its_defining_module(name):
    homes = [p.stem for p in PACKAGE.glob("*.py")
             if p.stem != "__init__" and name in _definitions(p)]
    assert len(homes) == 1, homes
    module = importlib.import_module(f"padicdyn.{homes[0]}")
    assert getattr(padicdyn, name) is getattr(module, name)


def test_dir_lists_every_export():
    assert set(padicdyn.__all__) <= set(dir(padicdyn))
    assert "__version__" in dir(padicdyn)


def test_an_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        padicdyn.no_such_name
    assert not hasattr(padicdyn, "no_such_name")


def test_star_import_binds_every_export():
    namespace = {}
    exec("from padicdyn import *", namespace)
    assert set(padicdyn.__all__) <= namespace.keys()


@pytest.mark.parametrize(
    "argv,fn", [(CLASSIFY, scaling.classify), (RADIUS, scaling.classify),
                (HENSEL, hensel.hensel_lift)],
    ids=["classify", "radius", "hensel"],
)
def test_a_patched_binding_sees_every_call(monkeypatch, argv, fn):
    calls = []
    _record_calls(monkeypatch, fn, calls)
    # the package reads the patched binding too
    assert getattr(padicdyn, fn.__name__) is not fn
    assert cli.run(cli.invocation_from_args(argv), stdout=io.StringIO()) == cli.EXIT_OK
    assert len(calls) == 1


def test_the_bench_tracer_sees_every_call(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    from tracer import Tracer

    with Tracer() as tracer:
        for argv in (CLASSIFY, RADIUS, HENSEL):
            tracer.begin_op()
            cli.run(cli.invocation_from_args(argv), stdout=io.StringIO())
    metrics = tracer.metrics()
    assert metrics["cli.ops"] == 3
    assert metrics["scaling.classify_calls"] == 2
    assert metrics["hensel.lifts"] == 1
    assert not hasattr(scaling.classify, "__wrapped__")
