"""Span-stack tracer: exclusive (self) host time and call counts per layer.

The tracer measures the program from outside.  :meth:`Tracer.wrap` returns a
timing wrapper for one function; :mod:`e2ebench.layers` installs such
wrappers over the public methods of each module-level layer of ``repro``
before a traced pass starts.  Every wrapped call pushes a frame on the
calling thread's span stack; when it returns, its duration is added to the
parent frame's child time and ``duration - child time`` is billed to its own
layer.  So each instant inside a root span is billed to exactly one span —
the innermost one open.  A reentrant call of the same layer nests like any
other child, so it is never double-billed.

That the self times add up to the roots follows from the arithmetic alone,
so it proves nothing about the wrappers.  :meth:`Tracer.coverage_errors`
checks them against time measured without the tracer instead: on the thread
that runs the boundary spans, the layer self times plus unattributed must
equal the spans' duration as the workload timed it on its own clock, and no
armed layer call may run outside a boundary span.  A wrapper that leaves a
frame on the stack, or layer work billed outside a pass, fails it.

Only coarse boundaries (sweep, experiment, cell, run, query, phase) keep a
full span record; per-call spans are folded into per-layer accumulators.
Outside an armed pass the wrappers call straight through, so set-up and
output checks are never billed.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

#: Layer name under which boundary spans (and the roots) bill their self time.
UNATTRIBUTED = "unattributed"


class Layer:
    """Self-time and call-count accumulator of one layer on one thread."""

    __slots__ = ("self_s", "calls")

    def __init__(self) -> None:
        self.self_s = 0.0
        self.calls = 0


class _ThreadState:
    """One thread's span stack and accumulators; threads never share one,
    so no update is lost between the tuning service's two threads."""

    __slots__ = ("ident", "stack", "layers", "counts", "root_s", "implicit_roots")

    def __init__(self) -> None:
        self.ident = threading.get_ident()
        self.stack: list[list] = []
        self.layers: dict[str, Layer] = {}
        self.counts: dict[str, int] = {}
        self.root_s = 0.0
        #: armed layer calls made with an empty stack (outside every span)
        self.implicit_roots = 0

    def layer(self, name: str) -> Layer:
        acc = self.layers.get(name)
        if acc is None:
            acc = self.layers[name] = Layer()
        return acc


class Tracer:
    """Per-thread span stacks folding into per-layer self time and counts."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.armed = False
        #: full records of the coarse boundary spans:
        #: ``(name, start, end, parent id, span id, request id)``.
        self.records: list[tuple] = []
        self._local = threading.local()
        self._threads: list[_ThreadState] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    # ------------------------------------------------------------ accessors

    def state(self) -> _ThreadState:
        """The calling thread's stack and accumulators."""
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._threads.append(state)
            return state

    def self_times(self) -> dict[str, float]:
        """Self seconds per layer, summed over threads."""
        out: dict[str, float] = {}
        for state in list(self._threads):
            for name, acc in state.layers.items():
                out[name] = out.get(name, 0.0) + acc.self_s
        return out

    def self_s(self, name: str) -> float:
        return sum(
            s.layers[name].self_s for s in list(self._threads) if name in s.layers
        )

    def calls(self, name: str) -> int:
        return sum(
            s.layers[name].calls for s in list(self._threads) if name in s.layers
        )

    @property
    def root_s(self) -> float:
        """Summed duration of every root span, over all threads."""
        return sum(s.root_s for s in list(self._threads))

    @property
    def unattributed_s(self) -> float:
        return self.self_s(UNATTRIBUTED)

    def count(self, name: str, n: int = 1) -> None:
        counts = self.state().counts
        counts[name] = counts.get(name, 0) + n

    def counts(self) -> dict[str, int]:
        """Event counts, summed over threads."""
        out: dict[str, int] = {}
        for state in list(self._threads):
            for name, n in state.counts.items():
                out[name] = out.get(name, 0) + n
        return out

    def coverage_errors(self, measured_s: float, tolerance: float,
                        ident: int | None = None) -> list[str]:
        """Failures of the tracer against ``measured_s``, the boundary spans'
        duration as timed outside the tracer on thread ``ident`` (default:
        the calling thread).  The thread's layer self times plus unattributed
        must equal it within relative ``tolerance``, and none of its armed
        layer calls may run outside a boundary span."""
        ident = threading.get_ident() if ident is None else ident
        state = next((s for s in list(self._threads) if s.ident == ident), None)
        billed = sum(a.self_s for a in state.layers.values()) if state else 0.0
        errors = []
        if abs(billed - measured_s) > tolerance * measured_s:
            errors.append(f"additivity: layers + unattributed bill {billed:.6f} s, "
                          f"the boundary spans measured {measured_s:.6f} s")
        if state is not None and state.implicit_roots:
            errors.append(f"additivity: {state.implicit_roots} armed layer calls "
                          f"ran outside any boundary span")
        return errors

    # --------------------------------------------------------------- frames

    def _open(self) -> tuple[_ThreadState, list]:
        state = self.state()
        frame = [self.clock(), 0.0, 0]
        state.stack.append(frame)
        return state, frame

    def _close(self, state: _ThreadState, frame: list, name: str,
               boundary: bool = False) -> None:
        end = self.clock()
        stack = state.stack
        stack.pop()
        duration = end - frame[0]
        acc = state.layers.get(name)
        if acc is None:
            acc = state.layer(name)
        acc.self_s += duration - frame[1]
        acc.calls += 1
        if stack:
            stack[-1][1] += duration
        else:
            state.root_s += duration
            if not boundary:
                state.implicit_roots += 1

    @contextmanager
    def span(self, name: str, request_id: object = None) -> Iterator[int]:
        """A coarse boundary span: its own time is unattributed, and its full
        record is kept.  With an empty stack it is a root."""
        state = self.state()
        parent = next((f[2] for f in reversed(state.stack) if f[2]), 0)
        span_id = next(self._ids)
        frame = [self.clock(), 0.0, span_id]
        state.stack.append(frame)
        try:
            yield span_id
        finally:
            self._close(state, frame, UNATTRIBUTED, boundary=True)
            with self._lock:
                self.records.append(
                    (name, frame[0], self.clock(), parent, span_id, request_id)
                )

    def record(self, name: str, start: float, end: float,
               request_id: object = None) -> None:
        """A detached boundary record (never on a stack): a query whose
        lifetime interleaves with others on one event-loop thread."""
        with self._lock:
            self.records.append((name, start, end, 0, next(self._ids), request_id))

    # ------------------------------------------------------------- wrappers

    def wrap(self, name: str, fn: Callable,
             on_result: Callable[[Any], None] | None = None) -> Callable:
        """``fn`` timed as layer ``name``; ``on_result`` sees every result.

        A call with an empty stack opens an implicit root (worker threads of
        the tuning service start their own stacks this way).
        """
        clock = self.clock
        local = self._local
        state_of = self.state

        def traced(*args, **kwargs):
            if not self.armed:
                return fn(*args, **kwargs)
            try:
                state = local.state
            except AttributeError:
                state = state_of()
            stack = state.stack
            frame = [clock(), 0.0, 0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:  # _close, inlined: this runs around every hot call
                end = clock()
                stack.pop()
                duration = end - frame[0]
                acc = state.layers.get(name)
                if acc is None:
                    acc = state.layer(name)
                acc.self_s += duration - frame[1]
                acc.calls += 1
                if stack:
                    stack[-1][1] += duration
                else:
                    state.root_s += duration
                    state.implicit_roots += 1
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def wrap_generator(self, name: str, fn: Callable) -> Callable:
        """``fn`` returns an iterator; time each ``next()`` as layer ``name``
        (the builders' generator bodies run inside their consumers)."""

        def iterate(it):
            while True:
                if not self.armed:
                    item = next(it, _DONE)
                else:
                    state, frame = self._open()
                    try:
                        item = next(it, _DONE)
                    finally:
                        self._close(state, frame, name)
                if item is _DONE:
                    return
                yield item

        def traced(*args, **kwargs):
            return iterate(iter(fn(*args, **kwargs)))

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def timed_awaitable(self, name: str, awaitable) -> "_TimedAwaitable":
        """Time every synchronous slice of ``awaitable`` as layer ``name``;
        the time it spends suspended is not billed."""
        return _TimedAwaitable(self, name, awaitable)

    def wrap_coroutine(self, name: str, fn: Callable) -> Callable:
        """A coroutine function whose inner steps bill to layer ``name``
        (still a real coroutine, as asyncio's callbacks require)."""

        async def traced(*args, **kwargs):
            return await self.timed_awaitable(name, fn(*args, **kwargs))

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def wrap_async_generator(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            return _TimedAsyncIterator(self, name, fn(*args, **kwargs))

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced


_DONE = object()


class _TimedAwaitable:
    """Drives an awaitable step by step, billing each step to one layer."""

    __slots__ = ("_tracer", "_name", "_awaitable")

    def __init__(self, tracer: Tracer, name: str, awaitable) -> None:
        self._tracer = tracer
        self._name = name
        self._awaitable = awaitable

    def __await__(self):
        it = self._awaitable.__await__()
        tracer = self._tracer
        value: object = None
        error: BaseException | None = None
        while True:
            armed = tracer.armed
            if armed:
                state, frame = tracer._open()
            try:
                if error is not None:
                    step = it.throw(error)
                else:
                    step = it.send(value)
            except StopIteration as stop:
                return stop.value
            finally:
                if armed:
                    tracer._close(state, frame, self._name)
            try:
                value = yield step
                error = None
            except BaseException as exc:  # delivered to the inner awaitable
                value, error = None, exc


class _TimedAsyncIterator:
    """An async iterator whose every ``__anext__`` step is timed."""

    __slots__ = ("_tracer", "_name", "_inner")

    def __init__(self, tracer: Tracer, name: str, inner) -> None:
        self._tracer = tracer
        self._name = name
        self._inner = inner

    def __aiter__(self):
        return self

    def __anext__(self):
        return self._tracer.timed_awaitable(self._name, self._inner.__anext__())
