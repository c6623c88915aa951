"""Post-per-submission dispatch — the oracle for the submission pump.

:class:`PostPerSubmission` is the straightforward form of
:meth:`Executor._submit_one`: every submission instant is its own engine
event, posted at intent time.  The pump reserves the same sequence numbers
and folds consecutive instants into one event only where the engine would
have dispatched them next anyway, so it must reproduce this executor's
virtual-time state bit for bit while firing fewer events.
"""

from __future__ import annotations

from repro.runtime.api import Runtime
from repro.runtime.executor import Executor
from repro.runtime.task import Task


class PostPerSubmission(Executor):
    """An executor that posts one engine event per submission."""

    def _submit_one(self, task: Task, is_flush: bool, streamed: bool) -> None:
        self.graph.add(task)
        if is_flush:
            self._flush_tasks.add(task.uid)
        clock = max(self._submit_clock, self.sim.now)
        t = self._submit_clock = clock + self.task_overhead
        self.sim.post(t, self._submitted, task, streamed)

    def _submitted(self, task: Task, streamed: bool) -> None:
        # A streamed task pulls its successor before it is enqueued, so the
        # next submission is posted ahead of whatever this enqueue posts.
        if streamed:
            self._pull_next()
        task.submitted = True
        if task.state == "ready":
            self._enqueue(task)


def post_per_submission(rt: Runtime) -> Runtime:
    """Switch a freshly built runtime's executor to the oracle dispatch."""
    assert rt.executor.graph.num_tasks == 0, "switch before submitting"
    rt.executor.__class__ = PostPerSubmission
    return rt
