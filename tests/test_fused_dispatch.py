"""Submission-pump contract tests.

The executor has one dispatch path: submission instants run through the
submission pump, which folds consecutive instants into one engine event when
the engine would have dispatched them next anyway.  Its contract, pinned here
against the post-per-submission oracle in ``tests/dispatch_reference.py``:

* **bit-identity** — every virtual-time observable (makespan, per-task
  schedule, transfer stats, completed-task count) is identical to the
  oracle's, for every scheduler, eager and streamed submission, retained
  and reclaiming graphs;
* **fewer events** — the pump fires strictly fewer engine events on any
  non-trivial graph (that is its entire point);
* **tracing only observes** — a traced run takes the same path as an
  untraced one: same makespan, transfers and event count, and the trace and
  race findings the post-per-submission path recorded
  (``tests/data/traced_dispatch_gemm.json``);
* **same-instant robustness** — random graphs engineered to complete many
  tasks at identical instants stay bit-identical (hypothesis-driven).
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.blas.tiled import build_gemm
from repro.memory.layout import BlockCyclicDistribution
from repro.memory.matrix import Matrix
from repro.runtime.api import Runtime, RuntimeOptions
from repro.runtime.task import Task, make_access_list
from repro.topology.dgx1 import make_dgx1
from repro.verify import detect_races
from tests.dispatch_reference import post_per_submission

SCHEDULERS = ("xkaapi-locality-ws", "starpu-dmdas", "owner-computes", "round-robin")
TRACED_PATH = Path(__file__).parent / "data" / "traced_dispatch_gemm.json"


def _run_gemm(scheduler: str, *, oracle: bool, streaming: bool = False,
              retain: bool = True, n: int = 4096, nb: int = 512) -> dict:
    """One GEMM point, on the pump or (``oracle``) the reference dispatch."""
    opts: dict = {"scheduler": scheduler, "retain_tasks": retain, "trace": False}
    if scheduler == "owner-computes":
        opts["distribution"] = BlockCyclicDistribution(2, 4)
    rt = Runtime(make_dgx1(8), RuntimeOptions(**opts))
    if oracle:
        post_per_submission(rt)
    a, b, c = (Matrix.meta(n, n) for _ in range(3))
    pa, pb, pc = rt.partition(a, nb), rt.partition(b, nb), rt.partition(c, nb)
    tasks = build_gemm(1.0, pa, pb, 0.5, pc)
    if streaming:
        rt.submit_stream(tasks)
    else:
        for task in tasks:
            rt.submit(task)
    rt.memory_coherent_async(c, nb)
    graph = rt.executor.graph
    if graph.retain_tasks:
        graph.critical_path_priorities()
    makespan = rt.sync()
    return {
        "makespan_hex": makespan.hex(),
        "schedule": [
            (t.device, t.start_time.hex(), t.end_time.hex()) for t in graph.tasks
        ] if graph.retain_tasks else None,
        "events": rt.sim.events_fired,
        "transfers": rt.transfer.stats(),
        "tasks": rt.executor.completed_tasks,
    }


def _assert_pump_matches_oracle(pump: dict, oracle: dict) -> None:
    events = pump.pop("events"), oracle.pop("events")
    assert pump == oracle
    # The entire point of the pump: strictly fewer engine events.
    assert events[0] < events[1]


# ------------------------------------------------------------- bit-identity


@pytest.mark.parametrize("scheduler", SCHEDULERS)
@pytest.mark.parametrize("streaming", (False, True), ids=("eager", "streamed"))
def test_fused_equals_unfused_retained(scheduler, streaming):
    _assert_pump_matches_oracle(
        _run_gemm(scheduler, oracle=False, streaming=streaming),
        _run_gemm(scheduler, oracle=True, streaming=streaming),
    )


@pytest.mark.parametrize(
    "scheduler", [s for s in SCHEDULERS if s != "starpu-dmdas"]
)
def test_fused_equals_unfused_reclaiming(scheduler):
    # DMDAS needs the retained DAG for critical-path priorities.
    _assert_pump_matches_oracle(
        _run_gemm(scheduler, oracle=False, streaming=True, retain=False),
        _run_gemm(scheduler, oracle=True, streaming=True, retain=False),
    )


# ------------------------------------------------------ tracing only observes


def test_traced_run_matches_untraced_fused_run():
    """Tracing changes neither virtual time nor the dispatch path."""
    observed = {}
    for trace in (True, False):
        rt = Runtime(make_dgx1(8), RuntimeOptions(trace=trace))
        a, b, c = (Matrix.meta(2048, 2048) for _ in range(3))
        pa, pb, pc = (rt.partition(m, 512) for m in (a, b, c))
        for task in build_gemm(1.0, pa, pb, 0.5, pc):
            rt.submit(task)
        rt.memory_coherent_async(c, 512)
        observed[trace] = (
            rt.sync().hex(), rt.transfer.stats(), rt.sim.events_fired
        )
    assert observed[True] == observed[False]


_TILE_KEY = re.compile(r"T\((\d+):")


def _traced_gemm(scheduler: str, trace: bool):
    """The recorded GEMM n=8192 nb=1024 point; returns ``(runtime, obs)``."""
    rt = Runtime(make_dgx1(8), RuntimeOptions(scheduler=scheduler, trace=trace))
    a, b, c = (Matrix(8192, 8192, name=x) for x in "ABC")
    pa, pb, pc = (rt.partition(m, 1024) for m in (a, b, c))
    for task in build_gemm(1.0, pa, pb, 0.5, pc):
        rt.submit(task)
    rt.memory_coherent_async(c, 1024)
    rt.executor.graph.critical_path_priorities()
    makespan = rt.sync()
    # Matrix ids are process-global: key tiles relative to A.
    base = a.id

    def norm(text: str) -> str:
        return _TILE_KEY.sub(lambda m: f"T({int(m.group(1)) - base}:", text)

    digest = hashlib.sha256()
    for iv in rt.trace:
        digest.update(
            f"{iv.category.value}|{iv.device}|{iv.start.hex()}|{iv.end.hex()}|"
            f"{norm(iv.label)}|{iv.nbytes}\n".encode()
        )
    obs = {
        "makespan_hex": makespan.hex(),
        "transfers": rt.transfer.stats(),
        "events_fired": rt.sim.events_fired,
        "intervals": len(rt.trace),
        "trace_sha256": digest.hexdigest(),
        "races": sorted(
            f"{f.code} {norm(f.subject)}"
            for f in detect_races(rt.trace, rt.executor.graph)
        ),
    }
    return rt, obs


def _traced_points() -> dict:
    return json.loads(TRACED_PATH.read_text(encoding="utf-8"))["points"]


@pytest.mark.parametrize("scheduler", sorted(_traced_points()))
def test_traced_gemm_is_the_production_path(scheduler):
    rec = _traced_points()[scheduler]
    traced_rt, traced = _traced_gemm(scheduler, trace=True)
    untraced_rt, untraced = _traced_gemm(scheduler, trace=False)
    core = ("makespan_hex", "transfers", "events_fired")
    assert {k: traced[k] for k in core} == {k: untraced[k] for k in core}
    # The trace and its race findings are the ones the post-per-submission
    # path recorded; the event count is the pump's.
    assert traced == rec
    for rt in (traced_rt, untraced_rt):
        assert not rt.executor._fused_pending


# --------------------------------------- same-instant completion batches


PLATFORM4 = make_dgx1(4)
TILES = 6


@st.composite
def batched_specs(draw):
    """Random graphs biased toward simultaneous completions.

    All tasks share one flop count (equal kernel durations), and reads are
    drawn from a small tile pool, so independent tasks started at the same
    wake finish at exactly the same instant — the completion cascades the
    redundant-wake skip collapses.
    """
    n = draw(st.integers(2, 18))
    scale = draw(st.integers(1, 4))
    specs = []
    for _ in range(n):
        w = draw(st.integers(0, TILES - 1))
        reads = draw(
            st.lists(st.integers(0, TILES - 1), max_size=2, unique=True)
        )
        specs.append(([r for r in reads if r != w], w, scale))
    return specs


def _run_specs(specs, scheduler, oracle, window=None, overhead=None):
    """Submit ``specs`` eagerly, or streamed through an admission window of
    ``window`` tasks.  A small window resumes the pull chain from
    completions, and a zero ``overhead`` then puts the resumed submission at
    the completion's own instant — same-instant ties between a submission
    and already-posted events, which the pump must leave to the heap."""
    opts: dict = {"scheduler": scheduler, "trace": False, "stream_window": window}
    if overhead is not None:
        opts["task_overhead"] = overhead
    rt = Runtime(PLATFORM4, RuntimeOptions(**opts))
    if oracle:
        post_per_submission(rt)
    mat = Matrix.meta(TILES * 16, 16)
    part = rt.partition(mat, 16)
    tiles = part.col(0)
    tasks = [
        Task(
            name="k",
            accesses=make_access_list(
                reads=[tiles[r] for r in reads],
                readwrites=[tiles[w]],
                writes=[],
            ),
            flops=1e8 * scale,
            dim=256,
        )
        for reads, w, scale in specs
    ]
    if window is None:
        rt.submit_all(tasks)
    else:
        rt.submit_stream(iter(tasks))
    rt.memory_coherent_async(mat, 16)
    # ``max_events`` disables folding, so only the oracle, which never
    # folds, runs under the livelock valve.
    makespan = rt.sync(max_events=200_000) if oracle else rt.sync()
    schedule = [(t.device, t.start_time.hex(), t.end_time.hex()) for t in tasks]
    return makespan.hex(), schedule, rt.transfer.stats(), rt.sim.events_fired


@settings(max_examples=60, deadline=None)
@given(batched_specs(),
       st.sampled_from(["xkaapi-locality-ws", "round-robin", "starpu-dmdas"]),
       st.sampled_from([None, 1, 2, 3]),
       st.sampled_from([None, 0.0]))
def test_property_same_instant_batches_fused_bit_identical(
    specs, scheduler, window, overhead
):
    pump = _run_specs(specs, scheduler, False, window, overhead)
    oracle = _run_specs(specs, scheduler, True, window, overhead)
    # makespan, per-task placement/schedule and transfers all bit-identical…
    assert pump[:3] == oracle[:3]
    # …with the pump folding at least one submission of an eager batch (a
    # window of one makes every submission completion-driven: nothing folds).
    if window is None:
        assert pump[3] < oracle[3]
    else:
        assert pump[3] <= oracle[3]
