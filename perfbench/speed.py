"""Host speed probe: a fixed pure-Python task timed next to the workload.

The benchmark runs on small shared virtual machines whose speed drifts by a
fifth or more over tens of seconds, while other tenants come and go; the
same code then takes very different wall times from one run to the next.
To keep the end-to-end times comparable between runs, the benchmark times a
short reference task (a *burst*) right before and right after each stretch
of program work, and scales that stretch's wall time by

    REF_SECONDS / (mean of the bursts on either side)

so a reported time is the time the work would have taken on a host that runs
the reference task in exactly ``REF_SECONDS``.  A change to the program
moves the reported times as much as it moves the raw ones, since the
reference task does not touch the package; a change of host speed moves
the bursts and the work alike and cancels.  The raw times and every burst
are kept in each run's record.  Set-up time is not scaled (see
``run.setup_time``).  The bursts run in the benchmark's own process, so work
done by pool workers on the other CPUs is scaled by the speed of the CPU the
benchmark process ran on.

The task mixes what the package spends its time on: string-keyed counters
built from word concatenations, as in the word products, and a modular
running-sum sweep over a table of inverse powers, as in the residue sweeps.
"""

from __future__ import annotations

import signal
import time
from collections import Counter

# nominal duration of one burst: about the median of 400 bursts on a 2-vCPU
# virtual machine (Intel Xeon, Python 3.11.7)
REF_SECONDS = 0.011

_WORDS = tuple("x" * (i % 5) + "y" * (1 + i % 3) for i in range(40))
_P = 10007
_ROW = tuple(pow(m, _P - 3, _P) for m in range(1, 600))


def _task() -> int:
    total = 0
    for _ in range(5):
        acc: Counter[str] = Counter()
        for a in _WORDS:
            for b in _WORDS:
                acc[a + b] += 1
                acc[b + a] -= 1
        g0 = g1 = 0
        for _ in range(4):
            for m in range(1, len(_ROW)):
                g0 = (g0 + _ROW[m] * g1) % _P
                g1 = (g1 + _ROW[m - 1]) % _P
        total += len(acc) + g0
    return total


def burst() -> tuple[float, float]:
    """Run the reference task once; return its (start, end) on the
    ``perf_counter`` clock."""
    start = time.perf_counter()
    _task()
    return start, time.perf_counter()


def duration() -> float:
    """Run the reference task once; return how long it took."""
    start, end = burst()
    return end - start


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` of wall time, between bursts that took ``before`` and
    ``after`` seconds, at the nominal host speed."""
    return seconds * 2 * REF_SECONDS / (before + after)


class Ticker:
    """Bursts taken every ``interval`` seconds of wall time from a SIGALRM
    handler, for work that is one long call with no point between
    requests to take them.  Use in the main thread of a process that has no
    other children running, so that the bursts contend with nothing."""

    def __init__(self, interval: float):
        self.interval = interval
        self.bursts: list[tuple[float, float]] = []
        self._old = None

    def _on_alarm(self, _signum, _frame) -> None:
        self.bursts.append(burst())

    def __enter__(self) -> "Ticker":
        self.bursts.append(burst())
        self._old = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self.bursts.append(burst())

    def scaled_between(self, start: float, end: float) -> float:
        """The wall time from ``start`` to ``end``, less the bursts inside
        it, with each stretch between two bursts scaled by them."""
        total = 0.0
        for b0, b1 in zip(self.bursts, self.bursts[1:]):
            lo, hi = max(b0[1], start), min(b1[0], end)
            if hi > lo:
                total += scaled(hi - lo, b0[1] - b0[0], b1[1] - b1[0])
        return total
