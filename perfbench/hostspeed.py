"""Host-speed probe: the benchmark's own yardstick for a drifting host.

On a shared VM the speed of identical work drifts with other tenants'
load: a fixed loop timed in 8 s windows read 19.8 to 27.1 ms within 80 s,
and medians over 60 s windows still spread 12.5% (IQR/median).  The
benchmark therefore times this fixed probe right before and after every
timed span and scales the span to the reference speed::

    scaled seconds = host seconds * REF_PROBE_S / mean(probe before, after)

The probe is interpreted Python only.  Drift moved a Python loop and a
numpy sort by the same factor (1.24 on both in one slow phase), and
leaving numpy out keeps this process small: a child's ``ru_maxrss``
starts from its parent's high-water mark.  The probe runs no ``repro``
code, so no change to the program can move it.
"""

from __future__ import annotations

import statistics
import time

#: a typical probe reading on the host the benchmark was written on, so
#: that scaled seconds read as host seconds at that host's usual speed
REF_PROBE_S = 0.0025
#: a reading younger than this is reused instead of probing again
PROBE_EVERY_S = 1.0
_REPS = 15


def _work() -> int:
    table = {}
    s = 0
    for i in range(20_000):
        s += i * i
        table[i & 1023] = s
    return s + len(table)


def probe() -> float:
    """Median seconds of ``_REPS`` runs of the fixed work (~40 ms)."""
    times = []
    for _ in range(_REPS):
        t0 = time.perf_counter()
        _work()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class HostSpeed:
    """Probe readings of one run, and spans timed against them."""

    def __init__(self) -> None:
        self.probes: list[float] = []
        self._when = float("-inf")

    def reading(self) -> float:
        """The current probe seconds, re-probing when the last is stale."""
        if time.perf_counter() - self._when > PROBE_EVERY_S:
            self.probes.append(probe())
            self._when = time.perf_counter()
        return self.probes[-1]

    def timed(self, fn):
        """Run ``fn``; return ``(result, host seconds, scaled seconds)``."""
        before = self.reading()
        t0 = time.perf_counter()
        result = fn()
        seconds = time.perf_counter() - t0
        after = self.reading()
        return result, seconds, seconds * REF_PROBE_S * 2 / (before + after)
