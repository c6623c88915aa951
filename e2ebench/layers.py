"""The layer map: which ``repro`` methods bill to which layer, and the work
counts read from each runtime after it ran.

:func:`install` wraps, at class level, the public methods of every
module-level layer (plus the two transfer-completion callbacks, which are
transfer work delivered as engine events).  It runs once per process, after
the last import of ``repro`` and before the first traced pass; wrappers call
straight through while the tracer is disarmed.

Self-time layers and the modules they stand for:

=====================  =====================================================
``dispatch``           ``sim.engine`` ``Simulator.run`` minus every child
                       layer: the event loop plus the executor's callbacks.
``executor.submit``    ``runtime.executor`` submission entry points.
``api``                ``runtime.api`` ``Runtime`` methods (partitioning,
                       submission and sync glue).
``scheduler``          ``runtime.scheduler`` (all four schedulers).
``transfer``           ``runtime.transfer``.  It reads the coherence
                       directory's arrays directly; those reads bill here,
                       not to ``directory``.
``fabric``             ``runtime.fabric`` and ``sim.channel``.
``cache``              ``memory.cache`` (device caches, eviction policies).
``directory``          ``memory.coherence`` (method calls only, see above).
``dataflow``           ``runtime.dataflow``.
``build``              ``blas.tiled`` / ``lapack`` builder generator bodies.
``library``            ``libraries`` routine entry points and sessions.
``library.runtime_setup``  ``Runtime`` construction, per cell.
``trace``              ``sim.trace`` recording and trace analysis.
``sweep``              ``bench.executor`` batch evaluation.
``store`` / ``store.put`` / ``store.load``  ``bench.cache`` lookups, writes
                       and store loads.
``service``            ``tuning.service`` request handling (each synchronous
                       slice of its coroutines).
``client``             the tuning-service clients the benchmark drives.
``loop`` / ``loop.idle``  the service's asyncio loop: its own callbacks and
                       transports, and its selector wait.
=====================  =====================================================
"""

from __future__ import annotations

import gc
import sys
import threading
import time
from contextlib import contextmanager
from typing import Iterator

from e2ebench.tracer import Tracer

#: Per-runtime work counters summed over a pass (see :meth:`Instruments.harvest`).
RUNTIME_COUNTERS = (
    "tasks", "events", "steals", "h2d", "d2h", "p2p", "optimistic_forwards",
    "host_bytes", "p2p_bytes", "cache_hits", "cache_misses", "evictions",
    "edges", "graph_tasks",
)


class GcMonitor:
    """Collections and pause time from ``gc.callbacks`` (cheap: always on)."""

    def __init__(self) -> None:
        self.collections = 0
        self.pause_s = 0.0
        self._t0 = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._t0 = time.perf_counter()
        else:
            self.pause_s += time.perf_counter() - self._t0
            self.collections += 1

    def install(self) -> None:
        gc.callbacks.append(self)

    def remove(self) -> None:
        if self in gc.callbacks:
            gc.callbacks.remove(self)


class Instruments:
    """The tracer plus the runtime registry it harvests counts from."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.totals = dict.fromkeys(RUNTIME_COUNTERS, 0)
        self._pending = threading.local()
        self._lock = threading.Lock()
        self.installed = False

    # ------------------------------------------------------------- runtimes

    def _runtimes(self) -> list:
        try:
            return self._pending.runtimes
        except AttributeError:
            self._pending.runtimes = []
            return self._pending.runtimes

    def harvest(self) -> None:
        """Fold the counters of every runtime built on this thread since the
        last harvest into :attr:`totals`, and let them go."""
        runtimes = self._runtimes()
        for rt in runtimes:
            stats = rt.transfer.stats()
            caches = rt.transfer.caches.values()
            graph = rt.executor.graph
            add = {
                "tasks": rt.executor.completed_tasks,
                "events": rt.sim.events_fired,
                "steals": getattr(rt.scheduler, "steals", 0),
                "h2d": stats["h2d"],
                "d2h": stats["d2h"],
                "p2p": stats["p2p"],
                "optimistic_forwards": stats["optimistic_forwards"],
                "host_bytes": rt.fabric.host_bytes_total(),
                "p2p_bytes": rt.fabric.p2p_bytes_total(),
                "cache_hits": sum(c.hits for c in caches),
                "cache_misses": sum(c.misses for c in caches),
                "evictions": sum(c.evictions for c in caches),
                "edges": graph.num_edges,
                "graph_tasks": graph.num_tasks,
            }
            with self._lock:
                for key, value in add.items():
                    self.totals[key] += value
        runtimes.clear()

    @contextmanager
    def span(self, name: str, request_id: object = None) -> Iterator[int]:
        """A boundary span that harvests the runtimes built inside it."""
        with self.tracer.span(name, request_id) as span_id:
            try:
                yield span_id
            finally:
                if self.tracer.armed:
                    self.harvest()

    @contextmanager
    def paused(self) -> Iterator[None]:
        """Disarm the wrappers around the output checks a traced pass makes
        outside its boundary spans, so they are never billed."""
        armed, self.tracer.armed = self.tracer.armed, False
        try:
            yield
        finally:
            self.tracer.armed = armed

    # ----------------------------------------------------------- installing

    def install(self) -> None:
        """Wrap every layer of the loaded ``repro`` package (once)."""
        if self.installed:
            return
        self.installed = True
        tr = self.tracer

        from repro.bench import cache as bcache
        from repro.bench import executor as bexec
        from repro.libraries.base import Session, SimulatedLibrary
        from repro.memory import cache as mcache
        from repro.memory.coherence import CoherenceDirectory
        from repro.runtime import api
        from repro.runtime.dataflow import TaskGraph
        from repro.runtime.executor import Executor
        from repro.runtime.fabric import Fabric
        from repro.runtime.scheduler import (
            DmdaScheduler,
            LocalityWorkStealing,
            OwnerComputesScheduler,
            RoundRobinScheduler,
        )
        from repro.runtime.transfer import TransferManager
        from repro.sim.channel import Channel
        from repro.sim.engine import Simulator
        from repro.sim.trace import TraceRecorder
        from repro.tuning.service import client, server

        count = tr.count

        def patch(cls, layer: str, names, on_result=None, wrap=None) -> None:
            # A method a later version of the program drops is skipped, not
            # fatal: its time then bills to the calling layer.
            for name in names:
                method = getattr(cls, name, None)
                if not callable(method):
                    continue
                if wrap is not None:
                    setattr(cls, name, wrap(layer, method))
                else:
                    setattr(cls, name, tr.wrap(layer, method, on_result))

        patch(Simulator, "dispatch", ("run",))
        patch(Executor, "dispatch", ("run_to_completion",))
        patch(Executor, "executor.submit", ("submit", "submit_stream"))
        patch(api.Runtime, "api", (
            "partition", "submit", "submit_all", "submit_stream",
            "memory_coherent_async", "distribute_2d_block_cyclic_async",
            "sync", "stats",
        ))
        init = api.Runtime.__init__

        def runtime_init(rt, *args, **kwargs):
            init(rt, *args, **kwargs)
            if tr.armed:
                self._runtimes().append(rt)

        api.Runtime.__init__ = tr.wrap("library.runtime_setup", runtime_init)

        def on_pop(task) -> None:
            count("scheduler.pops")
            if task is None:
                count("scheduler.empty_pops")

        for cls in (LocalityWorkStealing, DmdaScheduler,
                    OwnerComputesScheduler, RoundRobinScheduler):
            patch(cls, "scheduler", ("push",),
                  lambda _: count("scheduler.pushes"))
            patch(cls, "scheduler", ("pop",), on_pop)
            patch(cls, "scheduler", (
                "on_complete", "pending", "empty", "ready_device_mask",
                "has_stealable_work",
            ))

        patch(TransferManager, "transfer", (
            "ensure_resident", "ensure_resident_batch"),
            lambda _: count("transfer.residency_calls"))
        patch(TransferManager, "transfer", (
            "ensure_host_valid", "register_write", "allocate_output",
            "preview_source", "sanitize", "stats",
            "_complete_d2d", "_complete_d2h",
        ))

        patch(Fabric, "fabric", (
            "reserve", "reserve_h2d", "reserve_d2h", "reserve_p2p",
            "reserve_local", "d2h_channel", "estimate", "link_kind",
            "host_channel_stats", "p2p_bytes_total", "host_bytes_total",
        ))
        patch(Channel, "fabric", ("reserve", "reserve_batch", "occupy"),
              lambda _: count("fabric.reservations"))
        patch(Channel, "fabric", ("transfer_time", "utilization"))

        patch(mcache.DeviceCache, "cache", (
            "contains", "__contains__", "resident_keys", "insert",
            "insert_pinned", "remove", "touch", "pin", "pin_if_resident",
            "unpin", "unpin_if_resident", "unpin_many", "pin_count",
            "mark_dirty", "note_write", "mark_shared_elsewhere", "is_dirty",
            "record_access", "access_hit", "access_hit_pin", "evictable",
            "set_eviction_policy", "stats",
        ))
        for cls in (mcache.LruPolicy, mcache.ReadOnlyFirstPolicy,
                    mcache.Blasx2LevelPolicy):
            patch(cls, "cache", ("choose_victims",))

        patch(CoherenceDirectory, "directory", _public_methods(CoherenceDirectory))
        patch(TaskGraph, "dataflow", (
            "add", "complete", "ready_tasks", "last_writer", "all_done",
            "critical_path_priorities", "validate_acyclic",
        ))

        patch(SimulatedLibrary, "library", (
            "session", "gemm", "symm", "syrk", "syr2k", "trmm", "trsm",
            "hemm", "herk", "her2k",
        ))
        patch(Session, "library", _public_methods(Session))

        patch(TraceRecorder, "trace", ("record",),
              lambda _: count("trace.intervals"))
        patch(TraceRecorder, "trace", (
            "clear", "__iter__", "filter", "makespan",
            "cumulative_by_category", "normalized_by_category",
            "transfer_share", "per_device_breakdown", "device_busy_time",
            "gantt_rows", "idle_gaps",
        ))

        patch(bexec.SweepExecutor, "sweep", ("evaluate",))
        patch(bcache.PointCache, "store", ("get", "get_memo", "contains"))
        patch(bcache.PointCache, "store.put", ("put",))
        patch(bcache.PointCache, "store.load", ("_load",))
        for store_cls in (bcache.JsonlStore, bcache.SqliteStore):
            patch(store_cls, "store.put", ("append",),
                  lambda _: count("store.puts"))
            patch(store_cls, "store", ("lookup",))
            patch(store_cls, "store.load", ("load",))

        patch(server.TuningService, "service", ("handle_tune",),
              wrap=tr.wrap_async_generator)
        patch(server.TuningServer, "service", ("_dispatch", "_on_connection"),
              wrap=tr.wrap_coroutine)

        def on_claim(result) -> None:
            if not result[1]:
                count("service.singleflight_waits")

        patch(server.SingleFlight, "service", ("claim",), on_claim)
        patch(client.TuningClient, "client", ("tune",), wrap=tr.wrap_coroutine)

        cell = bexec.evaluate_cell

        def traced_cell(spec):
            if not tr.armed:
                return cell(spec)
            with self.span("cell", spec.cache_key()):
                return cell(spec)

        bexec.evaluate_cell = traced_cell

        for fn in _builders():
            _replace_everywhere(fn, tr.wrap_generator("build", fn))


def _public_methods(cls) -> tuple[str, ...]:
    return tuple(
        name for name, value in vars(cls).items()
        if not name.startswith("_") and callable(value)
        and not isinstance(value, (staticmethod, classmethod, type))
    )


def _builders() -> list:
    """Every ``build_*`` task-graph generator of the loaded package."""
    import repro.blas.tiled  # noqa: F401 - loads every builder module
    import repro.lapack  # noqa: F401

    out = []
    for name, module in list(sys.modules.items()):
        if not (name.startswith("repro.blas.tiled.") or name.startswith("repro.lapack.")):
            continue
        for attr, value in vars(module).items():
            if (attr.startswith("build_") and callable(value)
                    and getattr(value, "__module__", None) == name):
                out.append(value)
    return out


def _replace_everywhere(old, new) -> None:
    """Rebind every module-level reference to ``old`` in ``repro``: callers
    that imported the function by name hold their own reference."""
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")) or module is None:
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if value is old:
                namespace[attr] = new
