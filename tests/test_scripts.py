"""Smoke tests: the bundled scripts run end to end on the library as it is."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run_script(name: str, *args: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_worked_examples_script():
    out = _run_script("worked_examples.py")
    assert out.count("== ") == 4
    assert "   measure preserving: MeasurePreserving" in out
    assert "   invertible local isometry: Yes" in out
    assert out.rstrip().endswith("   measure preserving: Yes")


def test_random_survey_script():
    out = _run_script("random_survey.py", "--count", "5")
    assert out.startswith("kept 5 of ")
    assert "  oracle-checked maps: 5" in out
    assert "  oracle-checked component levels: " in out


def test_random_survey_checks_profiles_on_punctured_domains():
    out = _run_script("random_survey.py", "--count", "20")
    assert "  oracle-checked punctured profiles: " in out
