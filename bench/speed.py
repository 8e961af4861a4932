"""Host speed, sampled while the program runs, for normalising times.

The benchmark runs on a shared 2-vCPU virtual machine whose speed switches
between phases that last seconds to minutes: the same document then runs up
to 1.8x slower, with CPU time equal to wall time and no steal.  Raw times of
runs a minute apart differ by more than any bound worth setting, and a
reference job timed only before and after a phase misses the switches
inside it.

So the child process times a small fixed interpreter job (dict stores and
float formatting, about 1 ms) from a ``SIGALRM`` handler every
``INTERVAL_S`` of wall time, from its first line to its last.  A phase's
time is then reported in *nominal seconds*: each stretch of program time
between two probes is scaled by ``NOMINAL_PROBE_S`` over the time the probe
ending it took, and the probes' own time is left out.  That is the time the
phase would take on a host where the probe job takes ``NOMINAL_PROBE_S``,
about this host's fast phase (an Intel Xeon VM, Python 3.11).  Over 2.2 to
4.0 s of wall time for the same run, the nominal time kept within 0.03 of
its median (quartile spread), against 0.29 for wall time.

The probe is the benchmark's own and never changes with the program, so a
faster program still shows as a smaller nominal time.  It costs the program
2-4% of its wall time, the same for every version of it.
"""
from __future__ import annotations

import signal
from bisect import bisect_left, bisect_right
from time import monotonic

INTERVAL_S = 0.05
NOMINAL_PROBE_S = 0.001


def _probe_job() -> int:
    table: dict[int, float] = {}
    chars = 0
    for i in range(2_000):
        x = i * 1.000001
        table[i % 97] = x
        chars += len("%.9g" % x)
    return chars


class SpeedProbe:
    """Probe start and end times (``time.monotonic``) while it is running."""

    def __init__(self, interval_s: float = INTERVAL_S) -> None:
        self.interval_s = interval_s
        self.marks: list[tuple[float, float]] = []
        self._starts: list[float] = []
        self._ends: list[float] = []

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._starts = [a for a, _ in self.marks]
        self._ends = [b for _, b in self.marks]

    def _on_alarm(self, signum, frame) -> None:
        t0 = monotonic()
        _probe_job()
        self.marks.append((t0, monotonic()))

    def nominal_s(self, start: float, end: float) -> float:
        """Program time between ``start`` and ``end`` in nominal seconds.

        Call after ``stop``.  Each stretch before a probe is scaled by that
        probe's speed, the stretch after the last one by the last one's.  A
        window holding no probe is scaled by the probe nearest to it.
        """
        if not self._starts:
            raise RuntimeError("no speed probe ran")
        # The marks are disjoint and in time order: these overlap the window.
        lo = bisect_right(self._ends, start)
        hi = bisect_left(self._starts, end)
        if lo >= hi:
            near = self.marks[max(lo - 1, 0):lo + 1]
            a, b = min(near, key=lambda m: min(abs(m[0] - end), abs(m[1] - start)))
            return (end - start) * NOMINAL_PROBE_S / (b - a)
        total, prev = 0.0, start
        for a, b in self.marks[lo:hi]:
            total += max(0.0, a - prev) * NOMINAL_PROBE_S / (b - a)
            prev = max(prev, b)
        total += max(0.0, end - prev) * NOMINAL_PROBE_S / (b - a)
        return total
