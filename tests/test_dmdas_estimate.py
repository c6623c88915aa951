"""DMDAS's per-task estimate against the per-device reference.

``DmdaScheduler.push`` evaluates the input-transfer term of every device in
one :meth:`TransferManager.input_seconds` pass and the kernel term once per
distinct GPU model.  ``tests/dmdas_reference.py`` keeps the old per-device
forms (one source preview per read access per device, one kernel estimate
per device); over random directory states they must agree bit for bit
(``float.hex``), intern tiles in the same order, and make ``push`` pick the
same device with the same ``_avail``.
"""

import dataclasses

from hypothesis import given, settings, strategies as st

from repro import Runtime, RuntimeOptions
from repro.blas.tiled.common import make_task
from repro.memory.matrix import Matrix
from repro.runtime.policies import SourcePolicy
from repro.runtime.scheduler.base import SchedulerContext
from repro.runtime.scheduler.dmdas import DmdaScheduler
from repro.topology.device import GpuSpec
from repro.topology.dgx1 import make_dgx1
from repro.topology.link import HOST, Link, LinkKind
from repro.topology.platform import Platform
from tests import dmdas_reference as ref

NB = 1024
GRID = 4  # tiles per matrix side

_SLOW = dataclasses.replace(GpuSpec(), name="slow", fp64_peak=GpuSpec().fp64_peak / 2)


def _mixed(n: int) -> list[GpuSpec]:
    # Each GpuSpec() is a distinct object equal to the others: one group.
    return [_SLOW if d % 3 == 1 else GpuSpec() for d in range(n)]


def _ring(n: int, gpus: list[GpuSpec]) -> Platform:
    """``n`` GPUs with 2xNVLink to ring neighbours, 1xNVLink three hops
    away and PCIe peer elsewhere — varied ranks past the mask-table limit."""
    links = []
    for i in range(n):
        for j, kind in (((i + 1) % n, LinkKind.NVLINK_DOUBLE),
                        ((i - 1) % n, LinkKind.NVLINK_DOUBLE),
                        ((i + 3) % n, LinkKind.NVLINK_SINGLE),
                        ((i - 3) % n, LinkKind.NVLINK_SINGLE)):
            if not any(link.src == i and link.dst == j for link in links):
                links.append(Link(i, j, kind))
    return Platform(name=f"ring{n}", gpus=gpus, links=links,
                    pcie_switch_groups=[(d, d + 1) for d in range(0, n - 1, 2)]
                    + ([(n - 1,)] if n % 2 else []))


def _platform(kind: str) -> Platform:
    if kind == "dgx1":
        return make_dgx1(8)
    if kind == "dgx1-mixed":
        return dataclasses.replace(make_dgx1(8), gpus=_mixed(8))
    return _ring(13, _mixed(13))


_POLICIES = [
    SourcePolicy.HOST_ONLY,
    SourcePolicy.ANY_VALID,
    SourcePolicy.TOPOLOGY,
    SourcePolicy.TOPOLOGY_OPTIMISTIC,
]


@st.composite
def scenarios(draw):
    kind = draw(st.sampled_from(["dgx1", "dgx1-mixed", "ring13-mixed"]))
    n = 13 if kind.startswith("ring") else 8
    devices = st.integers(min_value=0, max_value=n - 1)
    tiles = st.tuples(
        st.integers(min_value=0, max_value=1),  # matrix A or B
        st.integers(min_value=0, max_value=GRID - 1),
        st.integers(min_value=0, max_value=GRID - 1),
    )
    states = draw(st.dictionaries(tiles, st.fixed_dictionaries({
        "modified": st.one_of(st.none(), devices),
        "shared": st.sets(devices, max_size=n),
        "flights": st.sets(st.integers(min_value=HOST, max_value=n - 1), max_size=4),
        "eta": st.floats(min_value=0.0, max_value=1e-2),
    }), max_size=8))
    reads = draw(st.lists(tiles, min_size=1, max_size=5))  # duplicates allowed
    return {
        "platform": kind,
        "policy": draw(st.sampled_from(_POLICIES)),
        "states": states,
        "reads": reads,
        "output": draw(tiles),
        "flops": draw(st.floats(min_value=0.0, max_value=1e12)),
        "avail": draw(st.lists(st.floats(min_value=0.0, max_value=1e-2),
                               min_size=n, max_size=n)),
        "now": draw(st.floats(min_value=0.0, max_value=1e-2)),
    }


def _build(sc):
    """A fresh runtime in the drawn directory state, plus the task."""
    rt = Runtime(
        _platform(sc["platform"]),
        RuntimeOptions(scheduler="starpu-dmdas", source_policy=sc["policy"]),
    )
    parts = [rt.partition(Matrix.meta(GRID * NB, GRID * NB, name=m), NB) for m in "AB"]
    directory = rt.directory
    for (m, i, j), state in sorted(sc["states"].items()):
        key = parts[m][(i, j)].key
        if state["modified"] is not None:
            directory.write(key, state["modified"])
        for d in sorted(state["shared"]):
            directory.seed_device(key, d, exclusive=False)
        for dst in sorted(state["flights"]):
            if not directory.is_valid(key, dst):
                directory.begin_transfer(key, dst, state["eta"], source=HOST)
    task = make_task(
        "gemm",
        reads=[parts[m][(i, j)] for m, i, j in sc["reads"]],
        rw=parts[sc["output"][0]][sc["output"][1:]],
        flops=sc["flops"],
        kernel=None,
        dims=(NB, NB, NB),
    )
    return rt, task


def _interned(rt) -> list[tuple[int, int, int]]:
    """The directory's tile ids in interning order, keyed run-locally."""
    index = rt.datastore.matrix_index
    return [(index(k.matrix_id), k.i, k.j) for k in rt.directory._tile_keys]


@given(sc=scenarios())
@settings(max_examples=150, deadline=None)
def test_input_seconds_match_reference_bit_for_bit(sc):
    rt, task = _build(sc)
    n = rt.platform.num_gpus
    if sc["platform"].startswith("ring"):
        assert rt.transfer._best_by_mask is None
    got = rt.transfer.input_seconds(task.accesses)

    twin, twin_task = _build(sc)
    want = [ref.transfer_estimate(twin.transfer, twin_task, d) for d in range(n)]
    assert [t.hex() for t in got] == [t.hex() for t in want]
    # Tiles the task reads for the first time are interned in access order.
    assert _interned(rt) == _interned(twin)


@given(sc=scenarios())
@settings(max_examples=150, deadline=None)
def test_push_matches_reference_placement(sc):
    rt, task = _build(sc)
    platform = rt.platform
    n = platform.num_gpus
    sched = DmdaScheduler(n, platform)
    sched._avail = list(sc["avail"])
    sched._now = sc["now"]
    ctx = SchedulerContext(platform=platform, directory=rt.directory, transfer=rt.transfer)
    sched.push(task, ctx)

    twin, twin_task = _build(sc)
    best_dev, best_ect = 0, float("inf")
    for dev in range(n):
        ect = ref.ect(sc["avail"][dev], sc["now"], twin.transfer, platform, twin_task, dev)
        if ect < best_ect:
            best_dev, best_ect = dev, ect
    want_avail = list(sc["avail"])
    want_avail[best_dev] = best_ect
    assert [q[0][2] is task for q in sched._queues if q] == [True]
    assert sched._queues[best_dev]
    assert [a.hex() for a in sched._avail] == [a.hex() for a in want_avail]


def test_push_groups_kernel_estimates_by_model():
    sched = DmdaScheduler(8, _platform("dgx1-mixed"))
    assert sched._specs == [GpuSpec(), _SLOW]
    assert sched._spec_of == [0, 1, 0, 0, 1, 0, 0, 1]
    assert DmdaScheduler(8, make_dgx1(8))._spec_of == [0] * 8
