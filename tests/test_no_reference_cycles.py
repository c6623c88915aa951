"""Runtimes leave no reference cycles, and the collector pause is sound.

Sweep cells run with CPython's cyclic collector paused
(:data:`repro.bench.executor.collector_paused`).  That is only safe while a
finished run's state is freed by reference counting alone: one cycle
anywhere in a runtime (executor ↔ scheduler context, tile ↔ interned
access, directory ↔ view were the ones removed) would keep the whole
runtime — task graph, caches, directory, trace — alive until the pause
ends.  Each case runs once to warm lazy imports and module caches, then
again under ``gc.DEBUG_SAVEALL`` with the collector off: the collection
afterwards must find nothing.
"""

import gc
import sys
import threading

import pytest

from repro import Runtime, RuntimeOptions
from repro.bench.cellspec import CellSpec
from repro.bench.executor import collector_paused, evaluate_cell
from repro.bench.harness import run_point
from repro.blas.tiled import build_gemm
from repro.libraries import LIBRARIES
from repro.memory.layout import BlockCyclicDistribution
from repro.memory.matrix import Matrix
from repro.topology.dgx1 import make_dgx1
from tests.test_memory_pressure import tiny_platform


def cyclic_garbage(run) -> int:
    """Objects only the cyclic collector could free after ``run()``."""
    run()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        with collector_paused:
            run()
        found = gc.collect()
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    return found


def gemm_runtime(platform, n, nb, numeric=False, submit_stream=False, **options):
    """Run one tiled GEMM on a fresh runtime, then drop it."""

    def run():
        rt = Runtime(platform, RuntimeOptions(**options))
        make = Matrix.random if numeric else Matrix.meta
        mats = [make(n, n, name=x) for x in "ABC"]
        parts = [rt.partition(m, nb) for m in mats]
        tasks = build_gemm(1.0, parts[0], parts[1], 0.5, parts[2])
        if submit_stream:
            rt.submit_stream(tasks)
        else:
            for task in tasks:
                rt.submit(task)
        rt.memory_coherent_async(mats[2], nb)
        rt.sync()
        return rt

    return run


@pytest.mark.parametrize("scenario", ["host", "device"])
@pytest.mark.parametrize("routine", ["gemm", "trsm"])
@pytest.mark.parametrize("library", sorted(LIBRARIES))
def test_perf_cell_leaves_no_cycles(library, routine, scenario):
    spec = CellSpec(library=library, routine=routine, n=4096, nb=1024, scenario=scenario)
    assert cyclic_garbage(lambda: evaluate_cell(spec)) == 0


@pytest.mark.parametrize("library", ["xkblas", "chameleon-tile"])
def test_composition_cell_leaves_no_cycles(library):
    spec = CellSpec(library=library, routine="trsm+gemm", n=4096, nb=1024,
                    mode="composition")
    assert cyclic_garbage(lambda: evaluate_cell(spec)) == 0


def test_numeric_gemm_leaves_no_cycles():
    plat = make_dgx1(4)
    assert cyclic_garbage(
        lambda: run_point("xkblas", "gemm", 256, 64, plat, numeric=True)
    ) == 0


def test_kept_traced_runtime_is_freed_without_the_collector():
    plat = make_dgx1(4)
    assert cyclic_garbage(
        lambda: run_point("xkblas", "gemm", 2048, 512, plat, keep_runtime=True)
    ) == 0


def test_streamed_reclaiming_run_past_the_window_leaves_no_cycles():
    run = gemm_runtime(
        tiny_platform(memory_tiles=8), n=320, nb=32, submit_stream=True,
        streaming=True, retain_tasks=False, stream_window=16, pipeline_window=2,
    )
    rt = run()
    assert rt.executor.completed_tasks == 10 * 10 * 10 + 10 * 10  # + flushes
    assert sum(cache.evictions for cache in rt.caches.values()) > 0
    del rt
    assert cyclic_garbage(run) == 0


def test_traced_dmdas_leaves_no_cycles():
    run = gemm_runtime(make_dgx1(4), 2048, 512, scheduler="starpu-dmdas", trace=True)
    assert run().trace.intervals
    assert cyclic_garbage(run) == 0


def test_owner_computes_lru_under_pressure_leaves_no_cycles():
    run = gemm_runtime(
        tiny_platform(memory_tiles=8), n=160, nb=32,
        scheduler="owner-computes", distribution=BlockCyclicDistribution(2, 1),
        eviction="lru", pipeline_window=2,
    )
    assert sum(cache.evictions for cache in run().caches.values()) > 0
    assert cyclic_garbage(run) == 0


def test_round_robin_without_overlap_leaves_no_cycles():
    run = gemm_runtime(make_dgx1(4), 2048, 512, scheduler="round-robin", overlap=False)
    assert cyclic_garbage(run) == 0


def test_coherence_sanitizer_leaves_no_cycles():
    run = gemm_runtime(make_dgx1(2), 256, 64, numeric=True, verify_coherence=True)
    assert run().sanitizer.checks > 0
    assert cyclic_garbage(run) == 0


# ------------------------------------------------------------ collector pause


@pytest.fixture
def collector_on():
    was = gc.isenabled()
    gc.enable()
    yield
    if not was:
        gc.disable()


def test_pause_nests(collector_on):
    with collector_paused:
        assert not gc.isenabled()
        with collector_paused:
            assert not gc.isenabled()
        assert not gc.isenabled()  # the outer pause still holds
    assert gc.isenabled()


def test_pause_keeps_a_disabled_collector_disabled(collector_on):
    gc.disable()
    with collector_paused:
        assert not gc.isenabled()
    assert not gc.isenabled()


def test_pause_restores_the_collector_when_the_cell_raises(collector_on):
    with pytest.raises(RuntimeError, match="cell failed"):
        with collector_paused:
            raise RuntimeError("cell failed")
    assert gc.isenabled()


def test_pause_is_shared_across_threads(collector_on):
    """The collector resumes only when the last overlapping cell leaves."""
    entered = threading.Event()
    release = threading.Event()

    def cell():
        with collector_paused:
            entered.set()
            release.wait(timeout=10)

    worker = threading.Thread(target=cell)
    worker.start()
    assert entered.wait(timeout=10)
    with collector_paused:
        assert not gc.isenabled()
    assert not gc.isenabled()  # the worker's cell is still running
    release.set()
    worker.join(timeout=10)
    assert not worker.is_alive()
    assert gc.isenabled()


def test_pause_depth_survives_a_thread_stress(collector_on):
    """Many threads entering and leaving at once: a lost depth update would
    re-enable the collector inside a pause or leave it off afterwards."""
    violations = []

    def cell():
        for _ in range(2000):
            with collector_paused:
                with collector_paused:
                    if gc.isenabled():
                        violations.append("collector on inside a pause")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=cell) for _ in range(8)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert violations == []
    assert gc.isenabled()
