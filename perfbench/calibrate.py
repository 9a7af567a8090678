"""Machine-speed calibration of timed intervals.

On a host whose cores are shared, the speed of pure-Python code can
change by half within seconds and stay changed for minutes, and every
wall time moves with it.  So the speed of the machine is sampled with
a fixed probe doing the kind of work tfpoly does (small tuples, dict
updates, integer sums) just before and just after each timed interval,
and every SAMPLE_EVERY_S during it from a SIGALRM handler, and the
interval is reported scaled to the speed at which the probe takes
PROBE_REF_S:

    calibrated = wall * PROBE_REF_S / mean(probe times around and during it)

The probe never calls tfpoly, so a faster program still reads faster.
"""

from __future__ import annotations

import signal
import statistics
import time

PROBE_REF_S = 0.00025
SAMPLE_EVERY_S = 0.05
_ROUNDS = 1000


def _probe_once() -> float:
    t0 = time.perf_counter()
    counts: dict[tuple[int, int, int], int] = {}
    for i in range(_ROUNDS):
        key = (i % 97, i % 13, i)
        counts[key] = counts.get(key, 0) + len(key)
    sum(counts.values())
    return time.perf_counter() - t0


def probe() -> float:
    """Median of three probe runs, in seconds."""
    return statistics.median(_probe_once() for _ in range(3))


def calibrated(wall: float, probes: list[float]) -> float:
    return wall * PROBE_REF_S / statistics.fmean(probes)


class Speedometer:
    """Probe times around and during one timed interval (main thread only)."""

    def __enter__(self) -> "Speedometer":
        self.probes = [probe()]
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def _tick(self, signum, frame) -> None:
        self.probes.append(_probe_once())

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.probes.append(probe())
