"""Checks of the benchmark itself.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path

import worker
from tracer import METRICS
from workloads import DEFAULT_SEED, HELD_OUT_SEED, build

ROOT = Path(__file__).resolve().parent.parent
COUNT_UNITS = ("count", "bytes", "ratio")


def _traced_survey(seed: int, maps: int = 6) -> dict:
    w = build("survey", seed)
    w = dataclasses.replace(w, ops=w.ops[:7 * maps], expected=w.expected[:7 * maps])
    out = worker.trace(w)
    assert out["tally"].failed == 0, out["tally"].problems
    return out["metrics"]


def test_traced_counts_repeat_and_names_do_not_depend_on_seed(monkeypatch):
    monkeypatch.chdir(ROOT)
    (ROOT / worker.WORK_DIR).mkdir(exist_ok=True)
    first = _traced_survey(DEFAULT_SEED)
    again = _traced_survey(DEFAULT_SEED)
    counts = [name for name, unit, _ in METRICS if unit in COUNT_UNITS]
    assert {n: first[n] for n in counts} == {n: again[n] for n in counts}
    assert first["cli.ops"] == 6 * 7
    other = _traced_survey(HELD_OUT_SEED)
    assert set(other) == set(first) == {name for name, _, _ in METRICS}


def test_same_seed_gives_same_inputs():
    for name in ("fine-digraph", "level-scan", "survey"):
        assert build(name, 3).ops == build(name, 3).ops
    assert build("survey", 3).ops != build("survey", 4).ops
    # the held-out seed runs other maps
    assert not set(build("survey", HELD_OUT_SEED).ops) & set(build("survey", DEFAULT_SEED).ops)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fine-digraph", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
