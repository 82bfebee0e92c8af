"""Host speed, sampled beside the workload, to rescale measured times.

The benchmark shares its machine with other tenants.  Their load switches the
speed of pure-Python code between states about 1.8x apart, each lasting
seconds to minutes, so two runs of the same code minutes apart can differ by
more than any useful bound.  The benchmark therefore times a fixed probe of a
few milliseconds, with the collector off so that the program's heap cannot
slow it: synchronously between set-ups, and every PERIOD_S from a thread
while the workload runs.  While the thread samples, the interpreter's switch
interval is raised so the workload's thread cannot cut into a probe.  The
probe has two halves because the solvers use the machine in two ways: it
fills a dictionary with tuple keys, as the first-order memo does, and runs a
memoized recursion over submasks, as the propositional split search does.

The probe's time over REFERENCE_S, smoothed by a running median over
2 * SMOOTH + 1 probes so that one disturbed probe cannot move it, and raised
to SENSITIVITY, is the work's slowdown at that moment.  ``rescale(a, b)``
integrates 1 / slowdown over the interval [a, b], leaving out the time the
probes themselves took, so an interval that spans a change of state is
rescaled piece by piece.  The probe depends on nothing in efgames, so a
change to the program moves rescaled times as it moves raw ones.
"""

from __future__ import annotations

import bisect
import gc
import os
import statistics
import sys
import threading
import time

PERIOD_S = 0.25
SMOOTH = 2
# The solvers slow down less than the probe: their time follows the probe's
# slowdown to this power, the exponent that left the smallest spread between
# runs of the four workloads on the shared host (see README.md).
SENSITIVITY = 0.75
# Fixes the unit of rescaled times: the probe takes REFERENCE_S rescaled
# seconds, about its duration on a quiet 2.0 GHz Xeon core.
REFERENCE_S = 0.003
SWITCH_INTERVAL_S = 0.1


def _fill(entries: int = 6000) -> int:
    table: dict[tuple[int, int], int] = {}
    for i in range(entries):
        key = (i & 1023, i >> 10)
        table[key] = table.get(key, 0) + 1
    return len(table)


def _split(bits: int = 8) -> int:
    memo: dict[tuple[int, int], int] = {}

    def value(s: int, r: int) -> int:
        got = memo.get((s, r))
        if got is not None:
            return got
        best = 1
        if s & (s - 1):
            low = s & -s
            rest = s ^ low
            x = rest
            best = 1 << 30
            while x:
                x = (x - 1) & rest
                best = min(best, value(low | x, r) + 1)
        memo[(s, r)] = best
        return best

    for r in range(4):
        value((1 << bits) - 1, r)
    return len(memo)


def _probe() -> int:
    return _fill() + _split()


class SpeedProbe:
    """Probe samples taken with ``sample`` and, between ``start`` and
    ``stop``, by a daemon thread; ``rescale`` reads them once the thread has
    stopped."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (start, end) per probe
        self._slowdowns: list[float] = []  # the work's, per probe
        self._unloaded: list[float] = []  # rescaled time at each probe's start
        self._stop = threading.Event()
        self._switch_interval = sys.getswitchinterval()
        self._thread = threading.Thread(target=self._loop, name="speed-probe", daemon=True)

    @staticmethod
    def pin() -> None:
        """Keep this thread, and the threads and processes it starts later,
        on one CPU, so that the probe measures the CPU the work runs on."""
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    def start(self) -> None:
        sys.setswitchinterval(SWITCH_INTERVAL_S)
        self.sample()
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()
        sys.setswitchinterval(self._switch_interval)
        raw = [(end - start) / REFERENCE_S for start, end in self.samples]
        self._slowdowns = [
            statistics.median(raw[max(0, i - SMOOTH): i + SMOOTH + 1]) ** SENSITIVITY
            for i in range(len(raw))
        ]
        self._unloaded = [0.0]
        for i in range(1, len(self.samples)):
            gap = self.samples[i][0] - self.samples[i - 1][1]
            self._unloaded.append(self._unloaded[-1] + gap / self._slowdowns[i - 1])

    def slowdown(self) -> float:
        """The work's median slowdown over every sample of the run."""
        return statistics.median(self._slowdowns)

    def sample(self) -> None:
        gc.disable()
        try:
            start = time.perf_counter()
            _probe()
            end = time.perf_counter()
        finally:
            gc.enable()
        self.samples.append((start, end))

    def _loop(self) -> None:
        while not self._stop.wait(PERIOD_S):
            self.sample()

    def _at(self, t: float) -> float:
        i = bisect.bisect_right(self.samples, (t, float("inf"))) - 1
        if i < 0:
            return (t - self.samples[0][0]) / self._slowdowns[0]
        return self._unloaded[i] + max(0.0, t - self.samples[i][1]) / self._slowdowns[i]

    def rescale(self, a: float, b: float) -> float:
        """Seconds the interval [a, b] would take on the reference host."""
        return self._at(b) - self._at(a)
