"""Speed probes: fixed work timed next to the work that is measured.

On a shared virtual machine the whole machine runs faster or slower in
phases that last from seconds to minutes, and the guest sees no steal
time: a process's CPU time stretches just as its wall time does.  Timing a
fixed piece of work right next to each measurement and dividing by it
takes those phases out, while a change in the measured work itself still
shows in full.

A probe-scaled time is multiplied back by the probe's reference time, so it
reads in seconds at the reference speed -- the speed at which the probe
takes exactly its reference time.  The reference times are close to what
the probes take on a 2-vCPU Intel Xeon VM at 2.1 GHz; they only fix the
scale, every comparison between runs is a ratio.
"""

from __future__ import annotations

import signal
import subprocess
import time

PROBE_LOOP = 60_000        # pure-Python part of the query probe
PROBE_SORT = 60_000        # floats sorted by its numpy part
PROBE_REF_S = 0.005        # reference time of the query probe
TICK_S = 0.25              # CPU time between probes inside a query
START_REF_S = 0.2          # reference time of the start probe

# a bare interpreter start with the numpy import, timed from the spawn
START_CODE = ("import sys, time; spawned = float(sys.argv[1]); "
              "import numpy; print(time.time() - spawned)")


def _probe_once(np, x) -> float:
    t0 = time.perf_counter()
    s = 0
    for i in range(PROBE_LOOP):
        s += i * i
    np.sort(x)
    return time.perf_counter() - t0


def _probe_input():
    import numpy as np
    return np, np.arange(PROBE_SORT, dtype=float)[::-1] * 0.5


def probe() -> float:
    """Median of three timings of a fixed piece of single-threaded work."""
    np, x = _probe_input()
    return sorted(_probe_once(np, x) for _ in range(3))[1]


class Sampler:
    """Probes taken inside a long call, from a SIGPROF handler.

    Between queries the probe only sees the machine at the ends of a query,
    and one query can last seconds.  While armed, the sampler takes one
    probe every ``tick_s`` of the process's CPU time, in the main thread
    between two bytecodes of the running query.  ``spent_s`` is the time
    the handler took, which the caller takes off the query's latency.
    """

    def __init__(self, tick_s: float):
        self.tick_s = tick_s
        self.samples = []
        self.spent_s = 0.0
        self._np, self._x = _probe_input()

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(_probe_once(self._np, self._x))
        self.spent_s += time.perf_counter() - t0

    def arm(self) -> None:
        self.samples, self.spent_s = [], 0.0
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, self.tick_s, self.tick_s)

    def disarm(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0)


def start_probe(python: str) -> float:
    """Start time of a fresh interpreter that imports numpy."""
    out = subprocess.run([python, "-c", START_CODE, repr(time.time())],
                         stdout=subprocess.PIPE, text=True, check=True)
    return float(out.stdout)


def scale(times, probes, ref_s: float, inner=None) -> list:
    """Times in seconds at the reference speed.

    ``probes`` holds one probe time before each of ``times`` and one after
    the last; ``inner``, if given, holds for each time the probes taken
    inside it.  Each time is scaled by the mean of the probes on either
    side of it and inside it, and multiplied by the probe's reference time
    ``ref_s``.
    """
    out = []
    for i, t in enumerate(times):
        seen = [probes[i], probes[i + 1]] + (inner[i] if inner else [])
        out.append(t * ref_s * len(seen) / sum(seen))
    return out
