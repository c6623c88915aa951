"""The four workloads.  Each one sets up (repeatably), runs timed passes —
untraced, or traced under :class:`e2ebench.layers.Instruments` — and checks
its outputs.  A pass is one unit of the work a user runs: one paper sweep,
one GEMM run, one tuning-service session.
"""

from __future__ import annotations

import gc
import json
import time
from contextlib import nullcontext
from pathlib import Path
from statistics import median

from e2ebench import checks
from e2ebench.stats import percentile, spread


class TaskCounter:
    """Tasks completed by every runtime, from one hook per drain."""

    def __init__(self) -> None:
        self.tasks = 0

    def install(self) -> None:
        from repro.runtime.executor import Executor

        drain = Executor.run_to_completion

        def run_to_completion(executor, *args, **kwargs):
            before = executor.completed_tasks
            try:
                return drain(executor, *args, **kwargs)
            finally:
                self.tasks += executor.completed_tasks - before

        Executor.run_to_completion = run_to_completion


class Workload:
    """Shared skeleton; subclasses fill in the set-up and one pass."""

    name = ""

    def __init__(self, root: Path, seed: int) -> None:
        self.root = root
        self.seed = seed
        self.counter = TaskCounter()
        #: the clock every timing uses (the runner swaps in one that
        #: excludes host-speed sampling)
        self.clock = time.perf_counter

    def setup(self) -> dict:
        """Import and set up what a pass needs, as a fresh process would
        (the runner times it in one); returns extra timings."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Bind the modules of the last set-up; install always-on hooks."""
        self.counter.install()

    def run_pass(self, inst, traced: bool) -> dict:
        """One pass: ``wall_s``, ``tasks``, ``ops_ms`` (latency samples),
        ``attempted``, ``errors`` (mismatch messages) and ``boundary_s``, the
        duration of the pass's root boundary spans on :attr:`clock`.  A
        traced pass runs every output check outside its spans under
        ``inst.paused()``."""
        raise NotImplementedError

    def report(self, passes: list[dict]) -> dict:
        """The workload's own end-to-end figures (printed, not gated)."""
        return {}

    def layer_counts(self, passes: list[dict]) -> dict:
        """Per-pass counts only this workload's objects know."""
        return {}

    def close(self) -> None:
        pass


# ------------------------------------------------------------- GEMM points


class GemmRetained(Workload):
    """xkblas GEMM N=32768, nb=2048 through ``harness.run_point``, tracing
    off, graph retained: BENCH_runtime.json row ``macro-gemm-n32768``."""

    name = "gemm-retained"
    row_name = "macro-gemm-n32768"
    n, nb = 32768, 2048

    def setup(self) -> dict:
        from repro import config
        from repro.bench.harness import run_point  # noqa: F401
        from repro.topology.dgx1 import make_dgx1

        config.TRACE_EVENTS = False
        make_dgx1(8)
        return {}

    def prepare(self) -> None:
        super().prepare()
        from repro.bench.harness import run_point
        from repro.topology.dgx1 import make_dgx1

        self.row = checks.bench_row(self.root, self.row_name)
        self._run_point = run_point
        self._make_platform = make_dgx1

    def run_pass(self, inst, traced: bool) -> dict:
        platform = self._make_platform(8)
        gc.collect()  # the previous pass's task graph is one cycle web
        span = inst.span("run") if traced else nullcontext()
        t0 = self.clock()
        with span:
            res = self._run_point("xkblas", "gemm", self.n, self.nb,
                                  platform=platform, keep_runtime=True)
        wall = self.clock() - t0
        rt = res.runtime
        tasks = rt.executor.completed_tasks
        with inst.paused() if traced else nullcontext():
            errors = checks.check_runtime_row(
                self.row, res.seconds, rt.sim.events_fired, tasks, rt.transfer.stats()
            )
        return {"wall_s": wall, "boundary_s": wall, "tasks": tasks,
                "ops_ms": [wall * 1e3], "attempted": 1, "errors": errors}


class GemmStream(GemmRetained):
    """Perf-mode GEMM N=49152, nb=1024 through ``Runtime.submit_stream``,
    ``retain_tasks=False``, tracing off: row ``macro-gemm-n49152-stream``."""

    name = "gemm-stream"
    row_name = "macro-gemm-n49152-stream"
    n, nb = 49152, 1024

    def setup(self) -> dict:
        from repro.blas.tiled.gemm import build_gemm  # noqa: F401
        from repro.memory.matrix import Matrix  # noqa: F401
        from repro.runtime.api import Runtime, RuntimeOptions  # noqa: F401
        from repro.topology.dgx1 import make_dgx1

        make_dgx1(8)
        return {}

    def prepare(self) -> None:
        super().prepare()
        import repro.blas.tiled.gemm as gemm_module
        from repro.memory.matrix import Matrix
        from repro.runtime.api import Runtime, RuntimeOptions

        self._gemm_module = gemm_module
        self._matrix = Matrix
        self._runtime = Runtime
        self._options = RuntimeOptions

    def _stream_gemm(self, platform):
        rt = self._runtime(platform, self._options(
            trace=False, streaming=True, retain_tasks=False))
        n, nb = self.n, self.nb
        a, b, c = (self._matrix.meta(n, n) for _ in range(3))
        pa, pb, pc = (rt.partition(m, nb) for m in (a, b, c))
        # Looked up at call time, so a traced pass sees the wrapped builder.
        rt.submit_stream(self._gemm_module.build_gemm(1.0, pa, pb, 0.5, pc))
        rt.memory_coherent_async(c, nb)
        return rt, rt.sync()

    def run_pass(self, inst, traced: bool) -> dict:
        platform = self._make_platform(8)
        gc.collect()
        span = inst.span("run") if traced else nullcontext()
        t0 = self.clock()
        with span:
            rt, makespan = self._stream_gemm(platform)
        wall = self.clock() - t0
        tasks = rt.executor.completed_tasks
        with inst.paused() if traced else nullcontext():
            errors = checks.check_runtime_row(
                self.row, makespan, rt.sim.events_fired, tasks, rt.transfer.stats()
            )
        return {"wall_s": wall, "boundary_s": wall, "tasks": tasks,
                "ops_ms": [wall * 1e3], "attempted": 1, "errors": errors}


# ------------------------------------------------------------- paper sweep


class PaperSweep(Workload):
    """``python -m repro.bench all --fast --jobs 1``, in process: every
    experiment, rendered, through one serial sweep executor and memo."""

    name = "paper-sweep"

    def setup(self) -> dict:
        import repro.bench.experiments  # noqa: F401
        from repro.bench.cache import PointCache, code_fingerprint
        from repro.bench.executor import SweepExecutor
        from repro.topology.dgx1 import make_dgx1

        t0 = self.clock()
        code_fingerprint()
        fingerprint_s = self.clock() - t0
        SweepExecutor(jobs=1, cache=PointCache()).close()
        make_dgx1(8)
        return {"fingerprint_s": fingerprint_s}

    def prepare(self) -> None:
        super().prepare()
        from repro.bench import executor as bexec
        from repro.bench.cache import PointCache
        from repro.bench.experiments import EXPERIMENTS

        self.expected = (
            json.loads(checks.EXPECTED_SWEEP.read_text())
            if checks.EXPECTED_SWEEP.exists() else None
        )
        self._bexec = bexec
        self._cache = PointCache
        self._experiments = EXPERIMENTS
        self._cells: list[tuple] = []
        cell = bexec.evaluate_cell

        def captured(spec):
            t0 = self.clock()
            outcome = cell(spec)
            self._cells.append((spec.cache_key(), outcome.ok, outcome.tflops,
                                outcome.seconds, self.clock() - t0))
            return outcome

        bexec.evaluate_cell = captured

    def run_pass(self, inst, traced: bool) -> dict:
        bexec = self._bexec
        gc.collect()
        self._cells = []
        tasks0 = self.counter.tasks
        executor = bexec.SweepExecutor(jobs=1, cache=self._cache())
        previous = bexec.set_default_executor(executor)
        renders: dict[str, str] = {}
        tally = {"pass": 0, "fail": 0}
        failing: list[str] = []
        span = inst.span("sweep") if traced else nullcontext()
        t0 = self.clock()
        try:
            with span:
                for name in sorted(self._experiments):
                    with inst.span("experiment", name) if traced else nullcontext():
                        result = self._experiments[name](fast=True)
                        renders[name] = result.render()
                    for check, ok in result.checks.items():
                        tally["pass" if ok else "fail"] += 1
                        if not ok:
                            failing.append(f"{name}: {check}")
            wall = self.clock() - t0
        finally:
            executor.close()
            bexec.set_default_executor(previous)
        stats = executor.stats()
        digest = checks.sweep_digest([c[:4] for c in self._cells], renders)
        if self.expected is None:
            errors = [f"no recorded digest at {checks.EXPECTED_SWEEP.name}"]
        else:
            errors = checks.check_sweep(self.expected, digest)
        return {
            "wall_s": wall,
            "boundary_s": wall,
            "tasks": self.counter.tasks - tasks0,
            "ops_ms": [c[4] * 1e3 for c in self._cells],
            # every simulated cell plus every rendered experiment is checked
            "attempted": len(self._cells) + len(renders),
            "errors": errors,
            "digest": digest,
            "tally": tally,
            "failing_checks": failing,
            "cells_simulated": stats["cells_simulated"],
            "memo_hits": stats["memo_hits"],
            "lookups": stats["memo_hits"] + stats["store_hits"] + stats["misses"],
        }

    def report(self, passes: list[dict]) -> dict:
        walls = [p["wall_s"] for p in passes]
        last = passes[-1]
        return {
            "sweep_wall_s": (median(walls), "s", spread(walls), len(walls)),
            "cell_ms_p90": (percentile([x for p in passes for x in p["ops_ms"]], 90),
                            "ms", None, sum(len(p["ops_ms"]) for p in passes)),
            "shape_checks_pass": (last["tally"]["pass"], "count", None, 1),
            "shape_checks_fail": (last["tally"]["fail"], "count", None, 1),
        }

    def layer_counts(self, passes: list[dict]) -> dict:
        n = len(passes)
        lookups = sum(p["lookups"] for p in passes)
        return {
            "sweep.cells_simulated": sum(p["cells_simulated"] for p in passes) / n,
            "sweep.memo_hit_ratio": (sum(p["memo_hits"] for p in passes) / lookups
                                     if lookups else 0.0),
        }
