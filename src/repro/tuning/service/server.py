"""The concurrent autotune server.

Three layers, smallest surface first:

* :class:`SingleFlight` — at most one in-flight evaluation per
  ``(cell key, fingerprint)``: the first asker owns the computation, every
  concurrent identical asker awaits the same future.  This is what makes N
  simultaneous identical queries cost exactly one simulation.
* :class:`TuningService` — transport-independent query engine.  A tune query
  expands to its deterministic cell enumeration; warm cells answer from the
  :class:`~repro.bench.cache.PointCache` immediately, cold cells are claimed
  through single-flight and coalesced into one batch per event-loop tick
  (plus an optional ``batch_window``) before dispatching to the
  :class:`~repro.bench.executor.SweepExecutor` on a worker thread.  Results
  stream back per cell, in enumeration order, as they resolve.
* :class:`TuningServer` — the asyncio TCP front end speaking the
  newline-delimited JSON protocol of :mod:`repro.tuning.service.protocol`,
  with per-connection write serialization and multiple requests in flight
  per connection.

Simulated numbers are never recomputed differently here: every cell routes
through the same :func:`repro.bench.executor.evaluate_cell` the offline
sweeps use, so a served TFlop/s is byte-identical to the direct
``harness.run_point`` path.
"""

from __future__ import annotations

import asyncio
import contextlib
from typing import AsyncIterator, Awaitable, Callable

from repro.bench.cellspec import CellOutcome, CellSpec
from repro.bench.executor import SweepExecutor
from repro.errors import BenchmarkError, ReproError
from repro.tuning.service import protocol
from repro.tuning.service.protocol import TuneQuery


class SingleFlight:
    """Deduplicates concurrent computations of the same key.

    :meth:`claim` returns ``(future, owned)``: the first claimant of a key
    owns it (must eventually resolve the future); later claimants of the
    same key get the same future with ``owned=False`` and await it — always
    through :func:`asyncio.shield`, so one cancelled waiter cannot cancel
    the shared computation out from under the others.
    Keys free themselves when their future completes — by then the point
    cache holds the outcome, so re-claims only happen after an eviction
    (never, in practice) or a fingerprint change.
    """

    def __init__(self) -> None:
        self._inflight: dict[object, asyncio.Future] = {}

    def claim(self, key: object) -> tuple[asyncio.Future, bool]:
        future = self._inflight.get(key)
        if future is not None:
            return future, False
        future = asyncio.get_running_loop().create_future()
        self._inflight[key] = future
        future.add_done_callback(
            lambda _, key=key: self._inflight.pop(key, None)
        )
        return future, True

    def __len__(self) -> int:
        return len(self._inflight)


class TuningService:
    """Transport-independent tune-query engine (single-flight + batching)."""

    def __init__(self, executor: SweepExecutor, batch_window: float = 0.0) -> None:
        self.executor = executor
        self.batch_window = batch_window
        self.queries = 0
        self.batches_dispatched = 0
        self._flight = SingleFlight()
        self._pending: list[tuple[CellSpec, asyncio.Future]] = []
        self._flush_task: asyncio.Task | None = None

    # ------------------------------------------------------------- querying

    async def handle_tune(self, query: TuneQuery) -> AsyncIterator[dict]:
        """Stream one query's events: ``cell`` per evaluated cell (in
        enumeration order, as each resolves), then the terminal ``result``."""
        self.queries += 1
        specs = query.specs()
        if not specs:
            raise BenchmarkError(
                f"no admissible cell for {query.routine} n={query.n}: every "
                f"candidate tile (tiles={query.tiles}) violates nb < n and "
                f"n/nb <= 32"
            )
        if len(specs) > protocol.MAX_QUERY_CELLS:
            raise BenchmarkError(
                f"tune query expands to {len(specs)} cells, over the limit of "
                f"{protocol.MAX_QUERY_CELLS}; narrow its libraries, scenarios "
                f"or tiles"
            )
        fingerprint = self.executor.fingerprint
        cache = self.executor.cache
        hits: dict[CellSpec, CellOutcome] = {}
        cold: list[CellSpec] = []
        for spec in specs:
            hit = cache.get_memo(spec, fingerprint)
            if hit is not None:
                hits[spec] = hit
            else:
                cold.append(spec)
        if cold:
            # The store re-check is synchronous I/O behind the store's lock,
            # which an off-loop evaluate batch may be holding — run it on a
            # worker thread (one hop for every cold cell of the query) so the
            # event loop never stalls on it.  Memory-only caches have no I/O;
            # the inline call just keeps the miss accounting of ``get``.
            if cache.persistent:
                found = await asyncio.to_thread(
                    lambda: [(s, cache.get(s, fingerprint)) for s in cold]
                )
            else:
                found = [(s, cache.get(s, fingerprint)) for s in cold]
            hits.update((s, hit) for s, hit in found if hit is not None)
        # Claim every remaining miss in one synchronous stretch, so all cold
        # cells of this query land in the same flush batch.
        plan: list[tuple[CellSpec, str, CellOutcome | asyncio.Future]] = []
        for spec in specs:
            hit = hits.get(spec)
            if hit is not None:
                plan.append((spec, protocol.SOURCE_CACHE, hit))
                continue
            future, owned = self._flight.claim((spec.cache_key(), fingerprint))
            if owned:
                self._enqueue(spec, future)
                plan.append((spec, protocol.SOURCE_SIMULATED, future))
            else:
                plan.append((spec, protocol.SOURCE_COALESCED, future))
        reports: list[protocol.CellReport] = []
        simulated = 0
        for spec, source, pending in plan:
            if isinstance(pending, CellOutcome):
                outcome = pending
            else:
                # Shielded: cancelling this waiter (client disconnect cancels
                # its dispatch task) must not cancel the shared single-flight
                # future other connections are awaiting, nor free its key
                # while the batch still runs.
                outcome = await asyncio.shield(pending)
            simulated += source == protocol.SOURCE_SIMULATED
            report = protocol.report_from_outcome(spec, outcome, source)
            reports.append(report)
            yield {"event": "cell", "cell": report.to_json()}
        best = protocol.pick_best(reports)
        yield {
            "event": "result",
            "best": best.to_json() if best is not None else None,
            "cells": len(reports),
            "simulated": simulated,
        }

    async def tune(self, query: TuneQuery) -> protocol.TuneReply:
        """In-process convenience: drain :meth:`handle_tune` into a reply."""
        cells: list[protocol.CellReport] = []
        simulated = 0
        async for event in self.handle_tune(query):
            if event["event"] == "cell":
                cells.append(protocol.CellReport.from_json(event["cell"]))
            else:
                simulated = event["simulated"]
        return protocol.TuneReply(
            cells=tuple(cells), best=protocol.pick_best(cells), simulated=simulated
        )

    # ------------------------------------------------------------- batching

    def _enqueue(self, spec: CellSpec, future: asyncio.Future) -> None:
        self._pending.append((spec, future))
        if self._flush_task is None:
            self._flush_task = asyncio.ensure_future(self._flush_soon())

    async def _flush_soon(self) -> None:
        # Cold cells claimed in the same tick (or window) coalesce into one
        # executor batch: concurrent distinct queries share pool dispatch.
        if self.batch_window > 0:
            await asyncio.sleep(self.batch_window)
        else:
            await asyncio.sleep(0)
        batch, self._pending = self._pending, []
        self._flush_task = None
        if not batch:
            return
        self.batches_dispatched += 1
        specs = [spec for spec, _ in batch]
        try:
            outcomes = await self.executor.evaluate_async(specs)
        except Exception:  # noqa: BLE001 — isolate the failure per cell
            # A batch fails as one unit, but its cells were coalesced from
            # unrelated queries: retry each alone so one poisoned spec cannot
            # opaquely fail the others, and name the cell in terminal errors.
            for spec, future in batch:
                try:
                    outcome = (await self.executor.evaluate_async([spec]))[spec]
                except Exception as exc:  # noqa: BLE001
                    if not future.done():
                        future.set_exception(BenchmarkError(
                            f"evaluation failed for {spec.cache_key()}: {exc}"
                        ))
                else:
                    if not future.done():
                        future.set_result(outcome)
        else:
            for spec, future in batch:
                if not future.done():
                    future.set_result(outcomes[spec])

    # ---------------------------------------------------------------- stats

    def stats(self) -> dict[str, int]:
        return {
            "queries": self.queries,
            "batches": self.batches_dispatched,
            "inflight": len(self._flight),
            **self.executor.stats(),
        }


class TuningServer:
    """Asyncio TCP front end over a :class:`TuningService`."""

    def __init__(
        self,
        executor: SweepExecutor,
        host: str = "127.0.0.1",
        port: int = 0,
        batch_window: float = 0.0,
    ) -> None:
        self.service = TuningService(executor, batch_window=batch_window)
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None
        self._stop = asyncio.Event()

    # ------------------------------------------------------------ lifecycle

    async def start(self) -> tuple[str, int]:
        """Bind and listen; returns the bound (host, port) — port 0 resolves
        to an ephemeral port, for tests and the smoke harness."""
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port, limit=protocol.MAX_LINE_BYTES
        )
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        return self.host, self.port

    async def serve_until_stopped(self) -> None:
        """Serve until :meth:`stop` (or a ``shutdown`` op) is called."""
        if self._server is None:
            await self.start()
        await self._stop.wait()
        await self.close()

    def stop(self) -> None:
        self._stop.set()

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self._stop.set()

    def stats(self) -> dict[str, int]:
        return self.service.stats()

    # ----------------------------------------------------------- connection

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        send = _locked_sender(writer)
        tasks: set[asyncio.Task] = set()
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:  # over the line limit: the rest is unframed
                    limit = protocol.MAX_LINE_BYTES
                    message = f"request line exceeds the {limit}-byte limit"
                    await send({"id": None, "event": "error", "message": message})
                    break
                if not line:
                    break
                try:
                    message = protocol.decode(line)
                except protocol.ServiceError as exc:
                    await send({"id": None, "event": "error", "message": str(exc)})
                    continue
                task = asyncio.ensure_future(self._dispatch(message, send))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            for task in tasks:
                task.cancel()
            writer.close()
            # CancelledError included: the handler itself may be cancelled by
            # server shutdown while draining the close — benign either way.
            with contextlib.suppress(Exception, asyncio.CancelledError):
                await writer.wait_closed()

    async def _dispatch(
        self, message: dict, send: Callable[[dict], Awaitable[None]]
    ) -> None:
        request_id = message.get("id")
        op = message.get("op")
        try:
            if op == "ping":
                await send({
                    "id": request_id,
                    "event": "pong",
                    "version": protocol.PROTOCOL_VERSION,
                })
            elif op == "stats":
                await send({
                    "id": request_id, "event": "stats", "stats": self.stats(),
                })
            elif op == "shutdown":
                await send({"id": request_id, "event": "ok"})
                self.stop()
            elif op == "tune":
                query = TuneQuery.from_json(message.get("query"))
                async for event in self.service.handle_tune(query):
                    await send({"id": request_id, **event})
            else:
                await send({
                    "id": request_id,
                    "event": "error",
                    "message": f"unknown op {op!r}",
                })
        except ReproError as exc:
            with contextlib.suppress(ConnectionResetError, BrokenPipeError):
                await send({
                    "id": request_id,
                    "event": "error",
                    "message": str(exc),
                    "kind": type(exc).__name__,
                })
        except (ConnectionResetError, BrokenPipeError):
            pass


def _locked_sender(
    writer: asyncio.StreamWriter,
) -> Callable[[dict], Awaitable[None]]:
    """Per-connection serialized writes, so concurrent in-flight requests on
    one connection never interleave partial lines."""
    lock = asyncio.Lock()

    async def send(message: dict) -> None:
        async with lock:
            writer.write(protocol.encode(message))
            await writer.drain()

    return send
