"""The ``tune-service`` workload: an in-process tuning server driven by two
closed-loop clients over localhost.

One pass is one session on a fresh SQLite point store:

* phase A — a server on the empty store answers the seeded query stream;
  a query's first ask simulates its cells (cold), repeats hit the memo
  (warm);
* phase B — a second server opens the same store (restart) and the stream
  is replayed; every answer now comes from the store.

The event loop runs on the main thread and the sweep executor's single
worker thread simulates (``SweepExecutor(jobs=1)``, a one-thread default
executor), so the process never has more than two threads.
"""

from __future__ import annotations

import asyncio
import gc
import os
import random
import selectors
import shutil
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from pathlib import Path
from statistics import median

from e2ebench import checks
from e2ebench.querygen import query_stream
from e2ebench.stats import percentile, spread
from e2ebench.workloads import Workload

CLIENTS = 2
#: Served best cells re-simulated directly per pass, for the byte check.
SAMPLE = 4


class TuneService(Workload):
    name = "tune-service"

    def __init__(self, root: Path, seed: int) -> None:
        super().__init__(root, seed)
        self.stream = query_stream(seed)
        self.tmp = root / ".e2ebench_tmp" / f"tune-{seed}"
        self._sessions = 0

    # --------------------------------------------------------------- set-up

    def _store_path(self) -> Path:
        """A fresh store path, unique across the run's processes."""
        self._sessions += 1
        return self.tmp / f"points-{os.getpid()}-{self._sessions}.sqlite"

    def setup(self) -> dict:
        from repro.bench.cache import PointCache, code_fingerprint
        from repro.bench.executor import SweepExecutor
        from repro.topology.dgx1 import make_dgx1
        from repro.tuning.service.server import TuningServer

        t0 = self.clock()
        code_fingerprint()
        fingerprint_s = self.clock() - t0
        make_dgx1(8)
        cache = PointCache(self._store_path())
        executor = SweepExecutor(jobs=1, cache=cache)
        server = TuningServer(executor, port=0)
        loop = asyncio.new_event_loop()
        try:
            loop.run_until_complete(server.start())
            loop.run_until_complete(server.close())
        finally:
            loop.close()
            executor.close()
            cache.close()
        return {"fingerprint_s": fingerprint_s}

    def prepare(self) -> None:
        super().prepare()
        from repro.bench.cache import PointCache
        from repro.bench.executor import SweepExecutor
        from repro.bench.harness import run_point
        from repro.topology.dgx1 import make_dgx1
        from repro.tuning.service.client import TuningClient
        from repro.tuning.service.protocol import ServiceError, TuneQuery
        from repro.tuning.service.server import TuningServer

        self._cache = PointCache
        self._executor = SweepExecutor
        self._server = TuningServer
        self._client = TuningClient
        self._error = ServiceError
        self._run_point = run_point
        self._make_platform = make_dgx1
        self.queries = [
            TuneQuery(routine=r, n=n, libraries=(lib,), fast=True)
            for r, n, lib in self.stream
        ]

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            self.tmp.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass

    # ----------------------------------------------------------------- pass

    async def _drive(self, port: int, replies: list) -> None:
        """Two closed-loop clients share the stream, in order."""
        clients = [await self._client.connect("127.0.0.1", port)
                   for _ in range(CLIENTS)]
        next_index = 0

        async def loop(client) -> None:
            nonlocal next_index
            while next_index < len(self.queries):
                i = next_index
                next_index += 1
                t0 = self.clock()
                try:
                    reply = await client.tune(self.queries[i])
                except (self._error, OSError) as exc:  # refused or dropped
                    reply = exc
                replies[i] = (t0, self.clock(), reply)

        try:
            await asyncio.gather(*(loop(c) for c in clients))
        finally:
            for client in clients:
                await client.close()

    async def _phase(self, store: Path, replies: list) -> dict:
        t_open = self.clock()
        cache = self._cache(store)
        executor = self._executor(jobs=1, cache=cache)
        server = self._server(executor, port=0)
        _, port = await server.start()
        open_s = self.clock() - t_open
        try:
            t0 = self.clock()
            await self._drive(port, replies)
            wall = self.clock() - t0
            stats = server.stats()
        finally:
            await server.close()
            executor.close()
            cache.close()
        return {"wall_s": wall, "open_s": open_s, "stats": stats}

    def run_pass(self, inst, traced: bool) -> dict:
        gc.collect()
        store = self._store_path()
        selector = selectors.DefaultSelector()
        loop = asyncio.SelectorEventLoop(selector)
        if traced:
            # The loop thread's time outside the service and client slices:
            # waiting in the selector, and asyncio's own callbacks and
            # transports (each loop iteration, minus its children).
            selector.select = inst.tracer.wrap("loop.idle", selector.select)
            if hasattr(loop, "_run_once"):
                loop._run_once = inst.tracer.wrap("loop", loop._run_once)
        loop.set_default_executor(ThreadPoolExecutor(max_workers=1))
        tasks0 = self.counter.tasks
        phases = {}
        replies = {"A": [None] * len(self.queries), "B": [None] * len(self.queries)}
        session = inst.span("session") if traced else nullcontext()
        t0 = self.clock()
        with session:
            try:
                for phase in ("A", "B"):
                    with inst.span("phase", phase) if traced else nullcontext():
                        phases[phase] = loop.run_until_complete(
                            self._phase(store, replies[phase]))
            finally:
                loop.run_until_complete(loop.shutdown_default_executor())
                loop.close()
        boundary = self.clock() - t0
        tasks = self.counter.tasks - tasks0
        if traced:
            for phase, got in replies.items():
                for i, (q0, q1, _) in enumerate(got):
                    inst.tracer.record("query", q0, q1, f"{phase}:{i}")
        result = self._classify(replies)
        with inst.paused() if traced else nullcontext():
            result["errors"] += self._check_sample()
        result["attempted"] += SAMPLE
        result.update(
            wall_s=phases["A"]["wall_s"] + phases["B"]["wall_s"],
            boundary_s=boundary,
            tasks=tasks,
            restart_open_s=phases["B"]["open_s"],
            stats={k: v["stats"] for k, v in phases.items()},
        )
        return result

    # --------------------------------------------------------------- checks

    def _classify(self, replies: dict) -> dict:
        """Latency per query class, and the per-query correctness checks."""
        lat: dict[str, list[float]] = {"cold": [], "warm": [], "restart": []}
        errors: list[str] = []
        self._best: dict[int, dict] = {}
        for i, ((a0, a1, a), (b0, b1, b)) in enumerate(
            zip(replies["A"], replies["B"])
        ):
            for phase, reply in (("A", a), ("B", b)):
                if isinstance(reply, Exception):
                    errors.append(f"query {phase}:{i} refused: {reply}")
            a_ms, b_ms = (a1 - a0) * 1e3, (b1 - b0) * 1e3
            if isinstance(a, Exception):
                lat["cold"].append(float("inf"))
            else:
                cold = any(c.source != "cache" for c in a.cells)
                lat["cold" if cold else "warm"].append(a_ms)
            if isinstance(b, Exception):
                lat["restart"].append(float("inf"))
                continue
            lat["restart"].append(b_ms)
            if any(c.source != "cache" for c in b.cells):
                errors.append(f"query B:{i} simulated after the restart")
            if isinstance(a, Exception):
                continue
            if _numbers(a) != _numbers(b):
                errors.append(f"query {i}: restart answer differs from phase A")
            if a.best is not None:
                self._best[i] = a.best.to_json()
        return {
            "latency_ms": lat,
            "ops_ms": lat["cold"] + lat["warm"] + lat["restart"],
            "attempted": 2 * len(self.queries),
            "errors": errors,
        }

    def _check_sample(self) -> list[str]:
        """Seeded served best cells against a direct ``run_point``."""
        rng = random.Random(self.seed)
        distinct = sorted({q: i for i, q in enumerate(self.queries)
                           if i in self._best}.values())
        errors = []
        for i in rng.sample(distinct, min(SAMPLE, len(distinct))):
            best = self._best[i]
            direct = self._run_point(best["library"], best["routine"], best["n"],
                                     best["nb"], platform=self._make_platform(8),
                                     scenario=best["scenario"])
            errors += checks.check_served(best, direct)
        return errors

    # -------------------------------------------------------------- figures

    def report(self, passes: list[dict]) -> dict:
        out = {}
        for cls, pcts in (("cold", (50, 90)), ("warm", (50, 99)),
                          ("restart", (50, 99))):
            samples = [x for p in passes for x in p["latency_ms"][cls]]
            for pct in pcts:
                out[f"{cls}_query_ms_p{pct}"] = (
                    percentile(samples, pct), "ms", None, len(samples))
        opens = [p["restart_open_s"] for p in passes]
        out["restart_open_s"] = (median(opens), "s", spread(opens), len(opens))
        return out

    def layer_counts(self, passes: list[dict]) -> dict:
        n = len(passes)
        stats = [p["stats"] for p in passes]
        lookups = sum(s["A"]["memo_hits"] + s["A"]["store_hits"] + s["A"]["misses"]
                      for s in stats)
        return {
            "sweep.cells_simulated": sum(s["A"]["cells_simulated"] + s["B"]["cells_simulated"]
                                         for s in stats) / n,
            "sweep.memo_hit_ratio": (sum(s["A"]["memo_hits"] for s in stats) / lookups
                                     if lookups else 0.0),
            "store.hits": sum(s["B"]["store_hits"] for s in stats) / n,
            "service.batches": sum(s["A"]["batches"] + s["B"]["batches"]
                                   for s in stats) / n,
        }


def _numbers(reply) -> list:
    """A reply's numbers without the per-cell ``source`` field."""
    return [(c.library, c.nb, c.scenario, c.ok, c.tflops, c.seconds, c.flops)
            for c in reply.cells]
