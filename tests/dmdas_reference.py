"""Per-device reference of DMDAS's cost model — the oracle for the fused
per-task estimate (:meth:`TransferManager.input_seconds` plus the per-model
kernel estimate in :meth:`DmdaScheduler.push`).

These are the straightforward forms the runtime used to evaluate once per
(task, device): a read-only source preview per access, a transfer estimate
summing the accesses in order, and a kernel estimate per device.  The fused
path must reproduce them bit for bit.
"""

from __future__ import annotations

from repro.runtime.task import Task
from repro.runtime.transfer import TransferManager
from repro.topology.link import HOST
from repro.topology.platform import Platform


def preview_source(transfer: TransferManager, key, dst: int) -> tuple[int, float]:
    """Where would a transfer to ``dst`` come from, and at what bandwidth?

    Mirrors :meth:`TransferManager._select_source` without touching any
    state; ``(dst, inf)`` when the tile is already valid there.
    """
    directory = transfer.directory
    if directory.is_valid(key, dst):
        return dst, float("inf")
    dmask = directory.device_valid_mask(directory.lookup(key)) & ~(1 << dst)
    policy = transfer.policy
    if dmask and policy.uses_device_sources:
        walk = TransferManager._mask_walk(dmask)
        if policy.topology_aware:
            table = transfer.fabric.best_source_by_mask
            if table is not None:
                src = table[dst][dmask]
            else:
                src = min(walk, key=transfer.fabric.rank_key[dst].__getitem__)
        else:
            src = walk[transfer._tile_mix(key, dst) % len(walk)]
        return src, transfer.fabric.link_bandwidth[(src, dst)]
    return HOST, transfer.platform.host_bandwidth


def transfer_estimate(transfer: TransferManager, task: Task, device: int) -> float:
    """Predicted input-transfer time of ``task`` on ``device``."""
    total = 0.0
    for access in task.accesses:
        if not access.reads:
            continue
        key = access.tile.key
        if transfer.directory.in_flight_to(key, device) is not None:
            continue
        _, bw = preview_source(transfer, key, device)
        if bw != float("inf"):
            total += access.tile.nbytes / bw
    return total


def kernel_estimate(platform: Platform, task: Task, device: int) -> float:
    spec = platform.gpus[device]
    return spec.kernel_time(task.flops, task.dim, regularity=task.regularity)


def ect(avail: float, now: float, transfer: TransferManager, platform: Platform,
        task: Task, device: int) -> float:
    """DMDAS's expected completion time of ``task`` on ``device``."""
    return (
        max(avail, now)
        + transfer_estimate(transfer, task, device)
        + kernel_estimate(platform, task, device)
    )
