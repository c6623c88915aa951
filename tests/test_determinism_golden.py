"""Golden-makespan determinism tests.

Two guarantees, both load-bearing for the performance work:

* **run-to-run determinism** — executing the same perf-mode routine twice on
  fresh simulators yields bit-identical makespans, transfer stats and event
  counts (no hidden host state, no salted hashing, no heap-order ambiguity);
* **bit-identity against the recorded goldens** — the values in
  ``tests/data/golden_makespans.json`` were recorded on the *pre-optimization*
  hot path (PR 2); every optimization since must reproduce them exactly.
  ``events_fired`` counts engine dispatches of the fused submission path,
  the only dispatch path (see the file's ``events_note``).
  A mismatch here means an "optimization" changed simulated behaviour, which
  is a correctness bug no wall-time win can justify.

When a *deliberate* model change shifts these numbers, re-record the golden
file and say so in the commit — never loosen the comparison.
"""

import json
from pathlib import Path

import pytest

from repro.bench.harness import run_point
from repro.bench.workloads import default_args, matrices_for
from repro.blas.tiled.gemm import build_gemm
from repro.blas.tiled.syr2k import build_syr2k
from repro.blas.tiled.trsm import build_trsm
from repro.libraries import base as library_base
from repro.memory.layout import BlockCyclicDistribution
from repro.memory.matrix import Matrix
from repro.runtime.api import Runtime, RuntimeOptions
from repro.topology.dgx1 import make_dgx1

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_makespans.json"


def _observe(routine: str, n: int, nb: int) -> dict:
    res = run_point(
        library="xkblas", routine=routine, n=n, nb=nb, keep_runtime=True
    )
    rt = res.runtime
    assert rt is not None
    return {
        "makespan": res.seconds,
        "makespan_hex": res.seconds.hex(),
        "events_fired": rt.sim.events_fired,
        "transfers": rt.transfer.stats(),
        "tasks": rt.executor.completed_tasks,
    }


def _observe_with_scheduler(scheduler: str, n: int, nb: int) -> dict:
    """One GEMM point under a specific scheduling policy.

    Mirrors the recording script for ``scheduler_points``: owner-computes
    needs a distribution to derive owners from, every other policy runs with
    its defaults.  Priorities are assigned exactly as ``Session.sync`` does.
    """
    opts: dict = {"scheduler": scheduler}
    if scheduler == "owner-computes":
        opts["distribution"] = BlockCyclicDistribution(2, 4)
    rt = Runtime(make_dgx1(8), RuntimeOptions(**opts))
    a, b, c = (Matrix.meta(n, n) for _ in range(3))
    pa, pb, pc = rt.partition(a, nb), rt.partition(b, nb), rt.partition(c, nb)
    for task in build_gemm(1.0, pa, pb, 0.5, pc):
        rt.submit(task)
    rt.memory_coherent_async(c, nb)
    rt.executor.graph.critical_path_priorities()
    makespan = rt.sync()
    return {
        "makespan": makespan,
        "makespan_hex": makespan.hex(),
        "events_fired": rt.sim.events_fired,
        "transfers": rt.transfer.stats(),
        "tasks": rt.executor.completed_tasks,
    }


def _golden_points() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))["points"]


def _golden_scheduler_points() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))["scheduler_points"]


@pytest.mark.parametrize("routine", ["gemm", "trsm"])
def test_two_fresh_runs_are_bit_identical(routine):
    first = _observe(routine, n=8192, nb=1024)
    second = _observe(routine, n=8192, nb=1024)
    assert first == second


@pytest.mark.parametrize("name", sorted(_golden_points()))
def test_makespans_match_recorded_goldens(name):
    rec = _golden_points()[name]
    got = _observe(rec["routine"], rec["n"], rec["nb"])
    expected = {
        "makespan": rec["makespan"],
        "makespan_hex": rec["makespan_hex"],
        "events_fired": rec["events_fired"],
        "transfers": rec["transfers"],
        "tasks": rec["tasks"],
    }
    assert got == expected, (
        f"{name} drifted from the recorded golden — simulated behaviour "
        "changed; if deliberate, re-record tests/data/golden_makespans.json"
    )


@pytest.mark.parametrize("name", sorted(_golden_scheduler_points()))
def test_scheduler_parity_goldens(name):
    """One recorded GEMM point per scheduling policy.

    The hot-path rework (array directory, indexed ready queues, incremental
    wake-up) touches structures every scheduler pops from; these goldens pin
    each policy's pop/steal order, not just the default one the macro points
    exercise.
    """
    rec = _golden_scheduler_points()[name]
    got = _observe_with_scheduler(rec["scheduler"], rec["n"], rec["nb"])
    expected = {
        "makespan": rec["makespan"],
        "makespan_hex": rec["makespan_hex"],
        "events_fired": rec["events_fired"],
        "transfers": rec["transfers"],
        "tasks": rec["tasks"],
    }
    assert got == expected, (
        f"{name} drifted from the recorded golden — scheduler behaviour "
        "changed; if deliberate, re-record tests/data/golden_makespans.json"
    )


# ------------------------------------------- traced vs untraced trace parity
#
# ``trace_parity_points`` pin cells that an untraced run (library sessions
# without ``keep_runtime``, which also take the fused dispatch path) must
# reproduce exactly as a traced one does: DMDAS on the non-GEMM routines its
# per-task input estimate has to get right, and one cell per library of the
# fast paper sweep.  Tracing only observes the one dispatch path, so both
# modes must match every pin, ``events_fired`` included.


def _runtime_observation(rt: Runtime, makespan: float) -> dict:
    return {
        "makespan": makespan,
        "makespan_hex": makespan.hex(),
        "events_fired": rt.sim.events_fired,
        "transfers": rt.transfer.stats(),
        "tasks": rt.executor.completed_tasks,
    }


def _run_dmdas(routine: str, n: int, nb: int, trace: bool):
    """One routine straight on a DMDAS runtime (no library session);
    returns ``(runtime, makespan)``."""
    rt = Runtime(make_dgx1(8), RuntimeOptions(scheduler="starpu-dmdas", trace=trace))
    mats = matrices_for(routine, n)
    args = default_args(routine)
    if routine == "syr2k":
        pa, pb, pc = (rt.partition(mats[m], nb) for m in "abc")
        tasks = build_syr2k(
            args["uplo"], args["trans"], args["alpha"], pa, pb, args["beta"], pc
        )
        out = mats["c"]
    elif routine == "trsm":
        pa, pb = (rt.partition(mats[m], nb) for m in "ab")
        tasks = build_trsm(
            args["side"], args["uplo"], args["transa"], args["diag"],
            args["alpha"], pa, pb,
        )
        out = mats["b"]
    else:
        raise ValueError(routine)
    for task in tasks:
        rt.submit(task)
    rt.memory_coherent_async(out, nb)
    rt.executor.graph.critical_path_priorities()
    return rt, rt.sync()


def _run_cell(rec: dict, keep_runtime: bool):
    """One ``run_point`` cell; returns ``(result, runtime)`` with the
    session's runtime captured even when the result does not keep it."""
    made: list[Runtime] = []

    def capture(*args, **kwargs):
        rt = Runtime(*args, **kwargs)
        made.append(rt)
        return rt

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(library_base, "Runtime", capture)
        res = run_point(
            library=rec["library"], routine=rec["routine"], n=rec["n"],
            nb=rec["nb"], scenario=rec["scenario"], keep_runtime=keep_runtime,
        )
    (rt,) = made
    return res, rt


def _golden_trace_parity_points() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))["trace_parity_points"]


@pytest.mark.parametrize("traced", [True, False], ids=["traced", "untraced"])
@pytest.mark.parametrize("name", sorted(_golden_trace_parity_points()))
def test_trace_parity_goldens(name, traced):
    rec = _golden_trace_parity_points()[name]
    if rec["kind"] == "dmdas":
        rt, makespan = _run_dmdas(rec["routine"], rec["n"], rec["nb"], trace=traced)
    else:
        res, rt = _run_cell(rec, keep_runtime=traced)
        # Only a kept runtime is reachable, and only a reachable one traces.
        assert res.runtime is (rt if traced else None)
        makespan = res.seconds
    assert rt.trace.enabled is traced
    got = _runtime_observation(rt, makespan)
    mode = "traced" if traced else "untraced"
    expected = {key: rec[key] for key in got}
    assert got == expected, f"{name} ({mode}) drifted from the recorded golden"
