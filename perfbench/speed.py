"""Host speed sampled throughout a run, to put timings on one speed scale.

The CPUs of a shared host run this benchmark at two speeds that differ by
about 1.6x: other tenants' work on the same cores slows every kind of work,
for seconds at a time and sometimes for whole minutes. Raw wall times of the
same code then spread by up to 30% from run to run, which no choice of
quantile within a run removes when a whole run falls in a slow spell.

``SpeedClock`` samples the speed while the program runs. A SIGALRM interval
timer interrupts the main thread every ``TICK_S`` of wall time (the handler
runs between bytecodes, so never inside a call into C), and the handler times
a fixed probe: ``PROBE_STORES`` dictionary stores, then ``PROBE_ARRAY_OPS``
small numpy operations, run once untimed and once timed, so that the caches
the program left behind do not count. Of the probes tried, this mix tracked
the slowdown of every timed operation best; probes of memory latency tracked
it worse than no scaling at all. Ticks are uniform in wall time, so the mean probe time
over an interval is the interval's time-averaged slowdown, and

    scaled = (raw - probe time inside) * NOMINAL_PROBE_S / mean probe time

is the interval's duration at the speed at which the probe takes
``NOMINAL_PROBE_S``. That constant sets the scale only: it is about the
probe's time inside a run on a quiet host (an Intel Xeon vCPU, CPython 3.11),
so scaled times read close to wall times there. Intervals shorter than
``MIN_PROBES`` ticks use the probes nearest to their midpoint. Raw durations are kept
beside the scaled ones in the results file.
"""

from __future__ import annotations

import signal
import time

import numpy as np

TICK_S = 0.005
PROBE_STORES = 100
PROBE_ARRAY_OPS = 4
PROBE_ARRAY = np.linspace(0.0, 1.0, 64)
NOMINAL_PROBE_S = 15e-6
MIN_PROBES = 8


def _probe() -> None:
    table = {}
    for i in range(PROBE_STORES):
        table[i & 63] = i
    for _ in range(PROBE_ARRAY_OPS):
        (PROBE_ARRAY * 2.0).sum()


class SpeedClock:
    """Probe timings taken on a wall-clock timer while the clock runs."""

    def __init__(self) -> None:
        self.when: list[float] = []
        self.took: list[float] = []
        self._previous = None
        self._arrays = None

    def _tick(self, signum, frame) -> None:
        _probe()
        start = time.perf_counter()
        _probe()
        self.when.append(start)
        self.took.append(time.perf_counter() - start)

    def __enter__(self) -> "SpeedClock":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._arrays = None

    def _probes(self):
        if self._arrays is None:
            when = np.asarray(self.when)
            cumulative = np.concatenate([[0.0], np.cumsum(self.took)])
            self._arrays = (when, cumulative)
        return self._arrays

    def scaled(self, start: float, end: float) -> float:
        """``end - start`` at the nominal speed, without the probes inside it."""
        when, cumulative = self._probes()
        if when.size < MIN_PROBES:
            raise RuntimeError(f"only {when.size} speed probes were taken")
        lo, hi = np.searchsorted(when, (start, end))
        inside = cumulative[hi] - cumulative[lo]
        if hi - lo < MIN_PROBES:
            mid = int(np.searchsorted(when, 0.5 * (start + end)))
            lo = min(max(mid - MIN_PROBES // 2, 0), when.size - MIN_PROBES)
            hi = lo + MIN_PROBES
        mean = (cumulative[hi] - cumulative[lo]) / (hi - lo)
        return (end - start - inside) * NOMINAL_PROBE_S / mean

    def summary(self) -> dict:
        took = np.asarray(self.took)
        p10, p50, p90 = np.percentile(took, [10, 50, 90]) if took.size else (0.0, 0.0, 0.0)
        return {
            "tick_s": TICK_S,
            "nominal_probe_s": NOMINAL_PROBE_S,
            "probes": int(took.size),
            "probe_s_p10": float(p10),
            "probe_s_p50": float(p50),
            "probe_s_p90": float(p90),
        }


def raw(start: float, end: float) -> float:
    return end - start
