"""Parallel sweep executor.

Benchmark cells are independent, deterministic simulations — the
embarrassingly-parallel shape task runtimes exploit for calibration sweeps —
so the harness can fan a batch of :class:`~repro.bench.cellspec.CellSpec`\\ s
out over a :class:`~concurrent.futures.ProcessPoolExecutor` and assemble the
outcomes in *submission* order, independent of completion order.  Because a
cell's outcome is a pure function of its spec (the determinism goldens
enforce this), ``--jobs N`` output is bit-identical to the serial run: the
parallel path changes wall time, never numbers.

Every batch first consults the executor's :class:`~repro.bench.cache.PointCache`;
only misses are simulated, and identical cells submitted by different
experiments in one ``all`` run collapse to a single simulation.
"""

from __future__ import annotations

import asyncio
import gc
import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from typing import Iterable

from repro.bench.cache import PointCache, code_fingerprint
from repro.bench.cellspec import CellOutcome, CellSpec
from repro.errors import BenchmarkError, LibraryError


def default_jobs() -> int:
    """Leave one core for the coordinator, never fewer than one worker."""
    return max(1, (os.cpu_count() or 2) - 1)


class _CollectorPause:
    """Reentrant, thread-safe pause of CPython's cyclic garbage collector.

    ``with collector_paused:`` disables the collector on the outermost entry
    and, on the matching outermost exit, restores the state it found (a
    collector that was already off stays off), also when the body raises.
    The nesting depth is shared by every thread — the tuning service
    evaluates batches on several — so the collector resumes only once the
    last concurrent cell has left.

    Runtimes leave no reference cycles (``tests/test_no_reference_cycles.py``
    pins this), so refcounting frees a cell's whole state when it is dropped
    and a paused collector misses nothing; a running one would re-traverse
    the live task graph on every allocation-driven collection.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._depth = 0
        self._resume = False

    def __enter__(self) -> None:
        with self._lock:
            if self._depth == 0:
                self._resume = gc.isenabled()
                gc.disable()
            self._depth += 1

    def __exit__(self, *exc_info: object) -> None:
        with self._lock:
            self._depth -= 1
            if self._depth == 0 and self._resume:
                gc.enable()


#: The process-wide collector pause: one shared depth, so uses nest.
collector_paused = _CollectorPause()


def evaluate_cell(spec: CellSpec) -> CellOutcome:
    """Evaluate one cell in the current process (the pool's worker entry).

    Deterministic library failures (unsupported routine, BLASX allocation
    limits) become ``ok=False`` outcomes so they cache and cross process
    boundaries like measurements; programming errors still raise.  The cell
    runs with the cyclic collector paused (see :data:`collector_paused`).
    """
    from repro.bench import harness

    with collector_paused:
        platform = spec.platform.build()
        try:
            if spec.mode == "composition":
                from repro.bench.experiments.fig8_composition import run_composition

                tflops, _ = run_composition(spec.library, spec.n, spec.nb, platform)
                return CellOutcome(ok=True, tflops=tflops)
            if spec.mode != "perf":
                raise BenchmarkError(f"unknown cell mode {spec.mode!r}")
            result = harness.run_point(
                spec.library, spec.routine, spec.n, spec.nb, platform,
                scenario=spec.scenario, k=spec.k,
            )
        except LibraryError as exc:
            return CellOutcome(ok=False, error=str(exc))
        return CellOutcome(
            ok=True, tflops=result.tflops, seconds=result.seconds, flops=result.flops
        )


class SweepExecutor:
    """Evaluates batches of cells over a worker pool, through a point cache.

    ``jobs=1`` preserves the serial in-process path (no pool, no pickling);
    any ``jobs`` produces byte-identical results.  The pool is created
    lazily on the first parallel batch and reused until :meth:`close`.
    """

    def __init__(
        self,
        jobs: int | None = None,
        cache: PointCache | None = None,
        start_method: str | None = None,
    ):
        self.jobs = default_jobs() if jobs is None else max(1, int(jobs))
        self.cache = cache if cache is not None else PointCache()
        self.start_method = start_method
        self.cells_simulated = 0
        self._fingerprint = code_fingerprint()
        self._stats_lock = threading.Lock()
        self._pool_lock = threading.Lock()
        self._pool: ProcessPoolExecutor | None = None

    @property
    def fingerprint(self) -> str:
        """The code fingerprint every cache record of this executor is keyed on."""
        return self._fingerprint

    # ------------------------------------------------------------- pooling

    def _pick_start_method(self) -> str:
        """Worker start method: explicit choice, else fork only while safe.

        Fork is the cheapest start-up (workers inherit the loaded package,
        immune to sys.path differences under spawn) — but forking a process
        with live threads (the asyncio tuning server's dispatch threads)
        clones locks in whatever state the other threads held them, which
        can deadlock the child pool.  So fork is only auto-selected while
        this process is single-threaded; otherwise forkserver/spawn.
        """
        available = multiprocessing.get_all_start_methods()
        if self.start_method is not None:
            if self.start_method not in available:
                raise BenchmarkError(
                    f"start method {self.start_method!r} unavailable; "
                    f"choose from {available}"
                )
            return self.start_method
        if "fork" in available and threading.active_count() == 1:
            return "fork"
        for method in ("forkserver", "spawn"):
            if method in available:
                return method
        return available[0]

    def _ensure_pool(self) -> ProcessPoolExecutor:
        # evaluate_async batches overlap, so creation is check-and-set under
        # a lock — racing threads must never overwrite (and thereby leak the
        # live workers of) each other's pool.
        with self._pool_lock:
            if self._pool is None:
                context = multiprocessing.get_context(self._pick_start_method())
                self._pool = ProcessPoolExecutor(
                    max_workers=self.jobs, mp_context=context
                )
            return self._pool

    def close(self) -> None:
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown()

    def __enter__(self) -> SweepExecutor:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ----------------------------------------------------------- evaluation

    def evaluate(self, specs: Iterable[CellSpec]) -> dict[CellSpec, CellOutcome]:
        """Evaluate a batch; returns an outcome for every distinct spec.

        Duplicate specs in the batch are simulated once.  Results are keyed
        by spec and assembled in submission order, so callers' iteration
        (and therefore rendered rows) never depends on completion order.
        """
        ordered = list(dict.fromkeys(specs))
        results: dict[CellSpec, CellOutcome] = {}
        misses: list[CellSpec] = []
        for spec in ordered:
            hit = self.cache.get(spec, self._fingerprint)
            if hit is not None:
                results[spec] = hit
            else:
                misses.append(spec)
        if misses:
            if self.jobs > 1 and len(misses) > 1:
                pool = self._ensure_pool()
                chunk = max(1, len(misses) // (self.jobs * 4))
                outcomes = list(pool.map(evaluate_cell, misses, chunksize=chunk))
            else:
                outcomes = [evaluate_cell(spec) for spec in misses]
            with self._stats_lock:
                self.cells_simulated += len(misses)
            for spec, outcome in zip(misses, outcomes):
                self.cache.put(spec, self._fingerprint, outcome)
                results[spec] = outcome
        # Submission order, including for the cached prefix.
        return {spec: results[spec] for spec in ordered}

    def evaluate_one(self, spec: CellSpec) -> CellOutcome:
        return self.evaluate([spec])[spec]

    async def evaluate_async(
        self, specs: Iterable[CellSpec]
    ) -> dict[CellSpec, CellOutcome]:
        """:meth:`evaluate` off the event loop, for the asyncio service layer.

        The batch runs on a worker thread so cache I/O and serial simulation
        never block the loop; stats stay coherent because the cache and the
        simulation counter are lock-guarded.  Concurrent calls are safe —
        callers wanting single-simulation guarantees for identical concurrent
        specs add single-flight on top (see :mod:`repro.tuning.service`).
        """
        return await asyncio.to_thread(self.evaluate, list(specs))

    def stats(self) -> dict[str, int]:
        with self._stats_lock:
            simulated = self.cells_simulated
        return {"cells_simulated": simulated, **self.cache.stats()}


# A process-wide default so harness helpers and experiments share one memo
# (cross-experiment deduplication) without every caller threading an executor.
# Serial by default — parallelism is an explicit opt-in (CLI --jobs).
_default: SweepExecutor | None = None


def default_executor() -> SweepExecutor:
    global _default
    if _default is None:
        _default = SweepExecutor(jobs=1)
    return _default


def set_default_executor(executor: SweepExecutor | None) -> SweepExecutor | None:
    """Install (or with ``None`` reset) the process-wide default executor."""
    global _default
    previous = _default
    _default = executor
    return previous
