"""Run one CLI op in-process, as the `padicdyn` console script would, and
digest what it printed."""

from __future__ import annotations

import hashlib
import io
import time
from dataclasses import dataclass
from pathlib import Path

from padicdyn import cli
from padicdyn.errors import PadicDynError


@dataclass(frozen=True)
class OpResult:
    code: int | None  # None when the op did not end as the CLI would
    stdout: str
    seconds: float
    unexpected: str | None  # an exception other than PadicDynError

    @property
    def digest(self) -> str:
        return digest_text(self.stdout)


def digest_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def digest_file(path: str) -> str:
    return digest_text(Path(path).read_text())


def run_op(argv) -> OpResult:
    """Exit status and output of `padicdyn <argv>`.  A PadicDynError is the
    CLI's exit status 1, and its message joins the digested output, so a
    different error is a different answer."""
    buf = io.StringIO()
    unexpected = None
    start = time.perf_counter()
    try:
        code = cli.run(cli.invocation_from_args(list(argv)), stdout=buf)
    except PadicDynError as exc:
        code = 1
        error = f"error: {type(exc).__name__}: {exc}\n"
    except (Exception, SystemExit) as exc:
        code = None
        unexpected = f"{type(exc).__name__}: {exc}"
    else:
        error = ""
    seconds = time.perf_counter() - start
    if code is None:
        return OpResult(None, buf.getvalue(), seconds, unexpected)
    return OpResult(code, buf.getvalue() + error, seconds, None)
