"""Host-speed calibration by sampling during the measurement.

On a shared 2-core host, identical passes drift by up to ~30% over tens of
seconds while neighbours load the machine.  CPU time drifts with wall time,
and no steal time is recorded, so the loss is throughput, not descheduling.
A :class:`Calibrator` therefore runs a fixed pure-Python :class:`Kernel`
(residency probes over slotted objects in a dict, an event heap) from a
``SIGALRM`` handler every :data:`PERIOD_S` seconds, while the program runs.
``repro`` code cannot change the kernel.  The gated pass timings are
reported at the reference speed:

    scaled = measured × (REFERENCE_S / mean kernel sample) ** SCALE_EXPONENT

The samples are bimodal: on the definition host the kernel takes either
about 1.2 ms or about 2.2 ms, as the host's throughput switches between two
levels.  A median would jump between the two modes; the mean, like the
program's run time, counts the share of time spent in each.

The kernel shares the process with the program, so each sample is taken
with the garbage collector off (a larger program heap cannot slow it), on a
second, cache-warm call (the program's working set cannot either), and in
the thread's CPU time (time spent waiting for the GIL while a worker thread
simulates is not counted).  The kernel still allocates small tuples, so
heavy allocation churn in the program can slow it a little (README.md).
The handler's own time is excluded from every timing the workloads take,
through :meth:`Calibrator.clock`.  Raw timings are printed next to the
scaled ones.
"""

from __future__ import annotations

import gc
import heapq
import random
import signal
import statistics
import time

#: Mean kernel sample on the definition host (see README.md), seconds.
REFERENCE_S = 0.0022
#: Slope of log run time on log mean kernel time, fitted over whole runs
#: (see README.md).
SCALE_EXPONENT = 0.85
#: Sampling period of the kernel.
PERIOD_S = 0.25


class _Tile:
    __slots__ = ("key", "valid", "last", "pins", "owner")

    def __init__(self, key: tuple) -> None:
        self.key = key
        self.valid = 0
        self.last = 0.0
        self.pins = 0
        self.owner = -1


class Kernel:
    """The calibration kernel: residency probes over 20,000 slotted tiles in
    a dict, and an event heap, shaped like the simulator's hot loop.  Every
    call does identical work (same draws, state reset at the end)."""

    def __init__(self, tiles: int = 20000, steps: int = 1250) -> None:
        self._tiles = [_Tile((i // 64, i % 64, i % 3)) for i in range(tiles)]
        self._index = {t.key: t for t in self._tiles}
        self._keys = [t.key for t in self._tiles]
        self._steps = steps

    def __call__(self) -> int:
        rng = random.Random(2)
        index, keys = self._index, self._keys
        heap: list = []
        touched = []
        now = 0.0
        acc = 0
        for i in range(self._steps):
            tile = index[keys[rng.randrange(len(keys))]]
            if tile.valid:
                tile.last = now
                tile.pins += 1
            else:
                tile.valid = 1
                tile.owner = i & 7
                touched.append(tile)
            heapq.heappush(heap, (now + rng.random(), i, tile))
            if len(heap) > 256:
                now, _, tile = heapq.heappop(heap)
                if tile.pins:
                    tile.pins -= 1
                acc += tile.owner
        for tile in touched:
            tile.valid = 0
            tile.pins = 0
        return acc


class Calibrator:
    """Samples the kernel's speed from a timer signal while it is running."""

    def __init__(self, period_s: float = PERIOD_S) -> None:
        self.period_s = period_s
        self.kernel = Kernel()
        self.samples: list[float] = []
        self.handler_s = 0.0
        self._previous = None

    def sample(self, *_signal) -> None:
        """Take one sample (also the ``SIGALRM`` handler)."""
        start = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        try:
            self.kernel()  # warms the caches
            t0 = time.thread_time()
            self.kernel()
            self.samples.append(time.thread_time() - t0)
        finally:
            if collecting:
                gc.enable()
            self.handler_s += time.perf_counter() - start

    def clock(self) -> float:
        """``perf_counter`` minus the time spent sampling."""
        return time.perf_counter() - self.handler_s

    def start(self) -> None:
        """Sample every :attr:`period_s` seconds from a timer signal.  The
        handler runs between bytecodes of the main thread, so a blocking
        call that the kernel restarts defers it until the call returns."""
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.siginterrupt(signal.SIGALRM, False)  # restart interrupted syscalls
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def speed(self, samples: list[float] | None = None) -> float:
        """``REFERENCE_S`` over the mean of ``samples`` (default: all of
        them); 1.0 without samples."""
        samples = self.samples if samples is None else samples
        if not samples:
            return 1.0
        return REFERENCE_S / statistics.fmean(samples)

    def scale(self, samples: list[float] | None = None) -> float:
        """The factor applied to gated timings: ``speed() ** SCALE_EXPONENT``."""
        return self.speed(samples) ** SCALE_EXPONENT
