"""Host speed, sampled with a fixed calibration kernel.

A shared host's single-core speed drifts: on a 2-core Xeon VM
(2.0 GHz, shared with other tenants) the same simulator pass took
8.9 s and 14.5 s a minute apart, with user CPU time moving in step, so
the host, not the program, set the spread. Timing the program alone
cannot tell a slower program from a slower host.

The simulator workloads therefore sample this module's kernel once a
second (a ``SIGALRM`` timer) while they run. The kernel does a fixed
amount of the kinds of work the program does: an interpreted event
loop over a heap and a dict, BLAKE2b digests of short names, a NumPy
sort, and a random gather from an array far larger than the caches
(the program's large heaps make it partly memory-bound). It never
calls the program, so no change to the program changes it.

The *speed factor* of a timed step is :data:`NOMINAL_S` over the mean
kernel time of the samples taken during it and of the two just before
and just after. Each reported time is the measured time of a step, less
the samples that ran inside it, multiplied by its factor: the time the
step would take on a host where the kernel runs in :data:`NOMINAL_S`.
The raw wall time and the factor are reported too (``host.*``
per-layer metrics).
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import signal
import time
from bisect import bisect_left, bisect_right
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

#: About the median kernel time on the 2-core Xeon VM (2.0 GHz) the
#: benchmark was tuned on; a host at this speed has factor 1.
NOMINAL_S = 0.040
#: Seconds between samples; each costs about NOMINAL_S.
INTERVAL_S = 1.0

_EVENTS = 10_000
_DIGESTS = 5_000
_SORTED = 300_000
_GATHERED = 400_000
#: Elements of the gather's source array: 64 MB of float64.
_TABLE = 8_000_000
_SALT = b"perfbench-host".ljust(16, b"\0")
_table: Optional[np.ndarray] = None
_picks: Optional[np.ndarray] = None


def kernel() -> float:
    """Run the calibration kernel once; returns its wall time in seconds.

    The cyclic garbage collector is paused while it runs, so the size of
    the program's heap does not leak into the host's speed.
    """
    global _table, _picks
    if _table is None:
        rng = np.random.default_rng(0)
        _table = rng.random(_TABLE)
        _picks = rng.integers(0, _TABLE, _GATHERED)
    enabled = gc.isenabled()
    gc.disable()
    try:
        began = time.perf_counter()
        heap: List[tuple] = []
        table = {}
        x = 12345
        for i in range(_EVENTS):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            heapq.heappush(heap, ((x & 0xFFFF) * 1e-3, i))
            if len(heap) > 256:
                at, j = heapq.heappop(heap)
                table[j & 1023] = table.get(j & 1023, 0.0) + at * 0.5
        blake2b = hashlib.blake2b
        for i in range(_DIGESTS):
            blake2b(b"fileset-%d" % i, digest_size=8, salt=_SALT).digest()
        keys = np.arange(_SORTED, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        np.sort(keys)
        _table[_picks].sum()
        return time.perf_counter() - began
    finally:
        if enabled:
            gc.enable()


class Lap(NamedTuple):
    """A measured time, net of sampling, and when it began and ended."""

    seconds: float
    began: float
    ended: float


class HostClock:
    """Samples the kernel every ``interval`` seconds while it is entered,
    and times steps net of the sampling.

    ``mark = clock.mark()`` before a step and ``clock.lap(mark)`` after
    it give the step's wall time less the samples that ran inside it.
    Scale a lap with :meth:`scaled` after the clock is exited, when the
    samples after it are in.
    """

    def __init__(self, interval: Optional[float] = INTERVAL_S) -> None:
        #: Seconds between samples; ``None`` samples only on entry and exit.
        self.interval = interval
        #: (start, seconds) of every kernel run, in order.
        self.samples: List[Tuple[float, float]] = []
        #: Wall seconds spent sampling, overhead included.
        self.spent = 0.0
        self._previous = None

    def __enter__(self) -> "HostClock":
        self.sample()
        if self.interval is not None:
            self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        if self.interval is not None:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def sample(self) -> None:
        began = time.perf_counter()
        self.samples.append((began, kernel()))
        self.spent += time.perf_counter() - began

    def mark(self) -> Tuple[float, float]:
        return time.perf_counter(), self.spent

    def lap(self, mark: Tuple[float, float]) -> Lap:
        began, spent = mark
        ended = time.perf_counter()
        return Lap(ended - began - (self.spent - spent), began, ended)

    def timed_by_program(self, seconds: float) -> Lap:
        """A step the program timed itself, ending now: ``seconds`` less
        the samples that started inside it."""
        ended = time.perf_counter()
        inside = sum(d for start, d in self.samples if ended - seconds <= start < ended)
        net = seconds - inside if inside < seconds else seconds
        return Lap(net, ended - seconds, ended)

    def factor(self, lap: Optional[Lap] = None) -> float:
        """:data:`NOMINAL_S` over the mean kernel time of the samples in
        ``lap`` and the two before and after it, or of all samples."""
        if lap is None:
            window = self.samples
        else:
            starts = [start for start, _ in self.samples]
            lo = max(0, bisect_left(starts, lap.began) - 2)
            window = self.samples[lo : bisect_right(starts, lap.ended) + 2]
        return NOMINAL_S * len(window) / sum(d for _, d in window)

    def scaled(self, lap: Lap) -> float:
        return lap.seconds * self.factor(lap)
