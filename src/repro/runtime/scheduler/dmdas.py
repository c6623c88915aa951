"""StarPU's DMDAS scheduler (deque model data aware, sorted).

The paper runs Chameleon with "the DMDAS StarPU scheduling algorithm that
seems to be well suited for linear algebra" (§IV-A), after warm-up runs that
let StarPU "build a performance model of each task".

StarPU's dmda family assigns a task *when it becomes ready*, to the worker
minimizing the expected completion time

``ect(task, w) = max(avail[w], now) + transfer_estimate(task, w) + kernel_estimate(task)``

where the transfer estimate charges non-resident input bytes at the bandwidth
of the cheapest available path, and the kernel estimate comes from the
calibrated performance model (our GPU efficiency curve plays that role — the
simulated equivalent of StarPU's history-based model after warm-up runs).
The ``s`` suffix (sorted) orders each worker's queue by task priority.

This data-aware global placement is what lets Chameleon balance SYRK/SYR2K
better than XKaapi's work stealing at large sizes (§IV-D/E) — each update task
lands where its C tile already lives, and queue-length feedback evens the
load.
"""

from __future__ import annotations

import heapq
import itertools

from repro.runtime.scheduler.base import Scheduler, SchedulerContext
from repro.runtime.task import Task
from repro.topology.platform import Platform


class DmdaScheduler(Scheduler):
    name = "starpu-dmdas"
    #: the sorted queues read ``Task.priority``, which only
    #: ``TaskGraph.critical_path_priorities()`` (whole-DAG, retained mode)
    #: assigns — streaming submission materializes eagerly for this policy.
    needs_priorities = True

    def __init__(self, num_devices: int, platform: Platform) -> None:
        super().__init__(num_devices)
        self.platform = platform
        self._seq = itertools.count()
        #: per-worker priority queues: (-priority, seq, task)
        self._queues: list[list[tuple[int, int, Task]]] = [
            [] for _ in range(num_devices)
        ]
        #: expected time at which each worker drains its assigned queue
        self._avail = [0.0] * num_devices
        self._now = 0.0
        #: bit ``d`` set iff ``_queues[d]`` is non-empty
        self._nonempty_mask = 0
        #: distinct GPU models, and each device's index into them: the kernel
        #: estimate is computed once per model per push, not once per device.
        gpus = platform.gpus[:num_devices]
        self._specs = list(dict.fromkeys(gpus))
        self._spec_of = [self._specs.index(spec) for spec in gpus]

    # -------------------------------------------------------------- placing

    def push(self, task: Task, ctx: SchedulerContext) -> None:
        transfer = ctx.transfer.input_seconds(task.accesses)
        kernel = [
            spec.kernel_time(task.flops, task.dim, regularity=task.regularity)
            for spec in self._specs
        ]
        avail, now, spec_of = self._avail, self._now, self._spec_of
        best_dev, best_ect = 0, float("inf")
        for dev in range(self.num_devices):
            ect = max(avail[dev], now) + transfer[dev] + kernel[spec_of[dev]]
            if ect < best_ect:
                best_dev, best_ect = dev, ect
        avail[best_dev] = best_ect
        heapq.heappush(self._queues[best_dev], (-task.priority, next(self._seq), task))
        self._nonempty_mask |= 1 << best_dev

    # -------------------------------------------------------------- serving

    def pop(
        self, device: int, ctx: SchedulerContext, idle: bool | None = None
    ) -> Task | None:
        queue = self._queues[device]
        if not queue:
            return None
        self.scheduled += 1
        task = heapq.heappop(queue)[2]
        if not queue:
            self._nonempty_mask &= ~(1 << device)
        return task

    def on_complete(self, task: Task, ctx: SchedulerContext) -> None:
        # Re-anchor availability on observed completions so estimates do not
        # drift (StarPU refreshes its worker ETAs the same way).
        self._now = max(self._now, task.end_time)
        if task.device is not None:
            self._avail[task.device] = max(self._avail[task.device], task.end_time)

    def pending(self) -> int:
        return sum(len(q) for q in self._queues)

    def empty(self) -> bool:
        return not self._nonempty_mask

    def ready_device_mask(self, ctx: SchedulerContext) -> int:
        return self._nonempty_mask
