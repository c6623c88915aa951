"""Span-stack self-time arithmetic, on nested, reentrant and async calls."""

import asyncio
import threading

import pytest

from e2ebench.tracer import UNATTRIBUTED, Tracer


class Clock:
    """A clock the test moves by hand."""

    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


@pytest.fixture
def clock():
    return Clock()


def _adds_up(tracer) -> None:
    """The arithmetic: every instant of a root is billed to one layer."""
    assert sum(tracer.self_times().values()) == pytest.approx(tracer.root_s, abs=1e-9)


@pytest.fixture
def tracer(clock):
    tr = Tracer(clock=clock)
    tr.armed = True
    return tr


def test_nested_layers_bill_self_time(tracer, clock):
    def inner():
        clock.t += 2.0

    b = tracer.wrap("B", inner)

    def outer():
        clock.t += 1.0
        b()
        clock.t += 3.0

    a = tracer.wrap("A", outer)
    with tracer.span("run"):
        clock.t += 1.0
        a()
        clock.t += 4.0
    assert tracer.self_s("A") == pytest.approx(4.0)
    assert tracer.self_s("B") == pytest.approx(2.0)
    assert tracer.unattributed_s == pytest.approx(5.0)
    assert tracer.root_s == pytest.approx(11.0)
    _adds_up(tracer)
    assert tracer.calls("A") == tracer.calls("B") == 1
    (record,) = tracer.records
    assert record[0] == "run" and record[1] == 0.0 and record[2] == 11.0


def test_reentrant_calls_are_not_double_billed(tracer, clock):
    def body(depth):
        clock.t += 1.0
        if depth:
            recurse(depth - 1)
        clock.t += 2.0

    recurse = tracer.wrap("A", body)
    recurse(2)  # empty stack: an implicit root
    assert tracer.self_s("A") == pytest.approx(9.0)
    assert tracer.calls("A") == 3
    assert tracer.root_s == pytest.approx(9.0)
    assert tracer.self_s(UNATTRIBUTED) == 0.0
    _adds_up(tracer)


def test_interleaved_layers_and_boundaries(tracer, clock):
    def leaf():
        clock.t += 0.5

    a_leaf = tracer.wrap("A", leaf)

    def mid():
        a_leaf()
        clock.t += 1.0
        a_leaf()

    b_mid = tracer.wrap("B", mid)
    with tracer.span("sweep") as sweep_id:
        with tracer.span("cell", "k1") as cell_id:
            b_mid()
            clock.t += 0.25
        a_leaf()
    assert tracer.self_s("A") == pytest.approx(1.5)
    assert tracer.self_s("B") == pytest.approx(1.0)
    assert tracer.unattributed_s == pytest.approx(0.25)
    _adds_up(tracer)
    cell, sweep = tracer.records
    assert cell[3] == sweep_id and cell[4] == cell_id and cell[5] == "k1"
    assert sweep[3] == 0


def test_exception_still_closes_the_frame(tracer, clock):
    def boom():
        clock.t += 1.0
        raise ValueError("x")

    wrapped = tracer.wrap("A", boom)
    with tracer.span("run"):
        with pytest.raises(ValueError):
            wrapped()
        clock.t += 1.0
    assert tracer.self_s("A") == pytest.approx(1.0)
    assert tracer.unattributed_s == pytest.approx(1.0)
    assert tracer.state().stack == []


def test_disarmed_wrappers_bill_nothing(tracer, clock):
    tracer.armed = False
    wrapped = tracer.wrap("A", lambda: 7)
    assert wrapped() == 7
    assert tracer.self_times() == {}
    assert tracer.root_s == 0.0


def test_result_hook_counts(tracer):
    pop = tracer.wrap("S", lambda x: x, lambda r: r is None and tracer.count("empty"))
    for value in (None, 1, None):
        pop(value)
    assert tracer.calls("S") == 3
    assert tracer.counts() == {"empty": 2}


def test_generator_steps_bill_to_their_layer(tracer, clock):
    def build():
        for i in range(3):
            clock.t += 1.0
            yield i

    traced = tracer.wrap_generator("build", build)

    def consume():
        for _ in traced():
            clock.t += 10.0

    with tracer.span("run"):
        tracer.wrap("api", consume)()
    assert tracer.self_s("build") == pytest.approx(3.0)
    assert tracer.self_s("api") == pytest.approx(30.0)
    _adds_up(tracer)


def test_coroutine_slices_exclude_suspension():
    tracer = Tracer()
    tracer.armed = True

    async def handler():
        await asyncio.sleep(0.05)
        return 3

    async def agen():
        for i in range(2):
            await asyncio.sleep(0.02)
            yield i

    wrapped = tracer.wrap_coroutine("service", handler)
    stream = tracer.wrap_async_generator("service", agen)

    async def main():
        items = [i async for i in stream()]
        return await wrapped(), items

    assert asyncio.run(main()) == (3, [0, 1])
    assert 0.0 < tracer.self_s("service") < 0.02
    _adds_up(tracer)


def test_threads_keep_separate_stacks():
    tracer = Tracer()
    tracer.armed = True
    slow = tracer.wrap("W", lambda: sum(range(20000)))
    threads = [threading.Thread(target=lambda: [slow() for _ in range(50)])
               for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)
    assert tracer.calls("W") == 100
    _adds_up(tracer)


# ------------------------------------------------- coverage against the clock


def _timed_span(tracer, clock, body) -> float:
    """Run ``body`` in a root span; return the span as timed outside it."""
    t0 = clock()
    with tracer.span("run"):
        body()
    return clock() - t0


def _work(tracer, clock):
    leaf = tracer.wrap("B", lambda: setattr(clock, "t", clock.t + 2.0))

    def body():
        clock.t += 1.0
        leaf()
        clock.t += 1.0

    return tracer.wrap("A", body)


def test_coverage_holds_for_correct_wrappers(tracer, clock):
    a = _work(tracer, clock)
    measured = _timed_span(tracer, clock, lambda: (a(), setattr(clock, "t", clock.t + 1)))
    assert measured == 5.0
    assert tracer.coverage_errors(measured, 1e-3) == []


def test_a_wrapper_that_drops_its_self_time_fails_coverage(tracer, clock):
    """A deliberately broken wrapper: it bills its duration to the parent's
    child time but never to its own layer, so the time vanishes."""

    def broken_wrap(fn):
        def traced():
            state, frame = tracer._open()
            try:
                return fn()
            finally:
                state.stack.pop()
                state.stack[-1][1] += tracer.clock() - frame[0]

        return traced

    leaf = broken_wrap(lambda: setattr(clock, "t", clock.t + 2.0))
    measured = _timed_span(tracer, clock, lambda: (leaf(), setattr(clock, "t", clock.t + 1)))
    (error,) = tracer.coverage_errors(measured, 1e-3)
    assert "boundary spans measured 3.000000 s" in error


def test_layer_work_outside_the_boundary_spans_fails_coverage(tracer, clock):
    """An armed call outside every span opens a root of its own.  The self
    times still add up to the roots, so only the outside clock shows it."""
    a = _work(tracer, clock)
    measured = _timed_span(tracer, clock, a)
    a()  # e.g. an output check left armed after the pass
    _adds_up(tracer)
    errors = tracer.coverage_errors(measured, 1e-3)
    assert len(errors) == 2
    assert "1 armed layer calls ran outside any boundary span" in errors[1]


def test_coverage_is_per_thread(tracer, clock):
    """A worker thread's implicit roots do not count against the thread
    that runs the boundary spans."""
    a = _work(tracer, clock)
    worker = threading.Thread(target=a)
    worker.start()
    worker.join(timeout=30)
    measured = _timed_span(tracer, clock, a)
    assert tracer.coverage_errors(measured, 1e-3) == []
    assert tracer.coverage_errors(measured, 1e-3, ident=worker.ident)
