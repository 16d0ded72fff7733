"""A fixed reference kernel that gauges the CPU's current speed.

On a shared virtual CPU the same Python code runs up to twice as fast in
one second as in the next, with no steal time: the CPU itself changes
speed.  A Gauge times this kernel right before and right after each
measured op, and every SAMPLE_EVERY_S while the op runs, from a SIGALRM
handler.  It scales the op's own time (without the handler's) by NOMINAL_S
over the kernel's mean time: the op's time on a CPU on which the kernel
takes exactly NOMINAL_S.  The kernel does what the library's own inner
loop does, exact `Fraction` arithmetic, integer residues and dict inserts,
but uses only the standard library, so no change to padicdyn changes it.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

# the kernel's time on this CPU's faster phase (Xeon, 2 GHz, Python 3.11)
NOMINAL_S = 0.010
ROUNDS = 300
SAMPLE_EVERY_S = 0.25

_NUM = [Fraction(1), Fraction(0), Fraction(2), Fraction(1), Fraction(1)]
_DEN = [Fraction(1), Fraction(-1), Fraction(0), Fraction(1)]
_MOD = 3**9


def kernel() -> int:
    """Evaluate a rational map at ROUNDS points and bin the values by
    residue mod 3^9."""
    cells: dict[int, list[int]] = {}
    for i in range(ROUNDS):
        x = Fraction(i, 3**8) if i % 7 else Fraction(i)
        a = Fraction(0)
        for c in reversed(_NUM):
            a = a * x + c
        b = Fraction(0)
        for c in reversed(_DEN):
            b = b * x + c
        if b:
            y = a / b
            d = y.denominator
            k = y.numerator * pow(d, -1, _MOD) % _MOD if d % 3 else -1
            cells.setdefault(k, []).append(i)
    return len(cells)


def seconds() -> float:
    """Seconds for one run of the kernel now."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class Gauge:
    """Times ops against the kernel, before, during and after each."""

    def __init__(self):
        # every kernel time taken, for the report
        self.kernel_s: list[float] = []
        self._during: list[float] = []
        signal.signal(signal.SIGALRM, self._on_alarm)
        self.restart()

    def _sample(self) -> float:
        self.kernel_s.append(seconds())
        return self.kernel_s[-1]

    def _on_alarm(self, signum, frame) -> None:
        self._during.append(self._sample())

    def restart(self) -> None:
        """Take the next op's first sample now, after untimed work."""
        self._before = self._sample()

    def measure(self, run, sample_during: bool = True):
        """`run()` returns a result and the seconds it took.  Returns the
        result and those seconds at the nominal speed.  `sample_during`
        must be off while `run` waits for a child process."""
        self._during.clear()
        if sample_during:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            result, raw = run()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        after = self._sample()
        speed = statistics.mean([self._before, *self._during, after])
        self._before = after
        return result, (raw - sum(self._during)) * NOMINAL_S / speed
