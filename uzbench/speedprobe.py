"""CPU speed probe: a process's CPU time in seconds at a fixed reference speed.

On a shared host the speed of a vCPU changes by tens of percent over
seconds to minutes (other tenants on the same cores, clock frequency), and
the CPU time of a fixed piece of work changes with it.  The probe runs a
fixed pure-Python loop every PERIOD_S of process CPU time (on SIGPROF) and
measures how long the loop took.  Each stretch of the process's own CPU
time between two probes is then scaled by REFERENCE_S over the median
duration of the probes around it: the result is the CPU time the process
would take on a machine where the loop takes REFERENCE_S.  The probes' own
time is left out.  A change to the measured program does not change the
loop, so it moves the result only through the program's own time.

CPU time here is the main thread's (``time.thread_time``): the measured
program runs on that one thread, and while an interval timer is armed
Linux updates the process-wide CPU clock only at timer ticks.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import List, Tuple

PERIOD_S = 0.1
PROBE_ITERS = 12_000
# CPU time of one probe loop on the reference machine (an idle 2-vCPU Intel
# Xeon virtual machine, CPython 3.11); it only fixes the unit.
REFERENCE_S = 0.002
# probes on each side of a stretch whose median duration gives its speed
WINDOW = 3

_TABLE = {i: (i * 2654435761) & 0xFFFF for i in range(256)}


def probe_loop(n: int = PROBE_ITERS) -> int:
    """Integer arithmetic and small-dict lookups; allocates no containers."""
    table = _TABLE
    x = 1
    for i in range(n):
        x = (x * 1103515245 + table[x & 255] + i) & 0xFFFFFFFF
    return x


class SpeedProbe:
    def __init__(self) -> None:
        self.marks: List[Tuple[float, float]] = []  # thread CPU time at each probe's start and end

    def _probe(self, *_signal) -> None:
        t0 = time.thread_time()
        probe_loop()
        self.marks.append((t0, time.thread_time()))

    def start(self) -> None:
        self._probe()
        signal.signal(signal.SIGPROF, self._probe)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        self._probe()

    def reference_s(self, cpu: float) -> float:
        """Thread CPU time up to the reading ``cpu``, probes left out, at the reference speed."""
        durations = [b - a for a, b in self.marks]
        total = 0.0
        stretch_start = 0.0
        for k, (a, b) in enumerate(self.marks + [(float("inf"), float("inf"))]):
            end = min(a, cpu)
            if end > stretch_start:
                near = durations[max(0, k - WINDOW):min(len(durations), k + WINDOW)]
                total += (end - stretch_start) * REFERENCE_S / statistics.median(near)
            if a >= cpu:
                break
            stretch_start = b
        return total
