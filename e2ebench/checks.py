"""Output checks.  Each returns a list of mismatch messages (empty = pass);
every mismatch counts as one failed operation.

* GEMM workloads: makespan (compared as ``float.hex``), engine events,
  completed tasks and transfer counts must equal the committed
  ``BENCH_runtime.json`` row of the same point.
* ``paper-sweep``: every simulated cell's ``(ok, tflops, seconds)`` and every
  experiment's rendered text must hash to the digest recorded at the seed in
  ``expected_sweep.json``.
* ``tune-service``: a served best cell must be byte-identical (as JSON) to
  the direct ``harness.run_point`` result of the same cell.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

EXPECTED_SWEEP = Path(__file__).resolve().parent / "expected_sweep.json"


def bench_row(root: Path, name: str) -> dict:
    """The committed perf row ``name`` of ``<root>/BENCH_runtime.json``."""
    data = json.loads((root / "BENCH_runtime.json").read_text())
    for row in data["results"]:
        if row.get("name") == name:
            return row
    raise KeyError(f"BENCH_runtime.json has no row {name!r}")


def check_runtime_row(row: dict, makespan: float, events: int, tasks: int,
                      transfers: dict) -> list[str]:
    """A simulated GEMM point against its committed row."""
    out = []
    if float(makespan).hex() != float(row["makespan_s"]).hex():
        out.append(f"{row['name']}: makespan {float(makespan).hex()} != "
                   f"{float(row['makespan_s']).hex()}")
    if events != row["events"]:
        out.append(f"{row['name']}: events {events} != {row['events']}")
    if tasks != row["tasks"]:
        out.append(f"{row['name']}: tasks {tasks} != {row['tasks']}")
    if dict(transfers) != row["transfers"]:
        out.append(f"{row['name']}: transfers {dict(transfers)} != {row['transfers']}")
    return out


def _num(value: object) -> str:
    return value.hex() if isinstance(value, float) else repr(value)


def sweep_digest(cells: list[tuple], renders: dict[str, str]) -> dict:
    """Digest of one sweep: ``cells`` holds ``(cache key, ok, tflops,
    seconds)`` per simulated cell, ``renders`` each experiment's text."""
    lines = sorted(
        f"{key} {ok} {_num(tflops)} {_num(seconds)}"
        for key, ok, tflops, seconds in cells
    )
    return {
        "cells": len(lines),
        "cells_sha256": hashlib.sha256("\n".join(lines).encode()).hexdigest(),
        "experiments": {
            name: hashlib.sha256(text.encode()).hexdigest()
            for name, text in sorted(renders.items())
        },
    }


def check_sweep(expected: dict, actual: dict) -> list[str]:
    """One sweep's digest against the recorded one, naming what differs."""
    out = []
    if (actual["cells"], actual["cells_sha256"]) != (
        expected["cells"], expected["cells_sha256"]
    ):
        out.append(f"sweep cells: {actual['cells']} cells, digest "
                   f"{actual['cells_sha256'][:12]} != recorded "
                   f"{expected['cells']} cells, {expected['cells_sha256'][:12]}")
    names = set(expected["experiments"]) | set(actual["experiments"])
    for name in sorted(names):
        want = expected["experiments"].get(name)
        got = actual["experiments"].get(name)
        if want != got:
            out.append(f"sweep {name}: rendered rows differ from the recording")
    return out


def cell_json(library: str, routine: str, n: int, nb: int, tflops: object,
              seconds: object, flops: object) -> bytes:
    """Canonical bytes of one cell's numbers."""
    return json.dumps(
        {"library": library, "routine": routine, "n": n, "nb": nb,
         "tflops": tflops, "seconds": seconds, "flops": flops},
        sort_keys=True,
    ).encode()


def check_served(best: dict, direct) -> list[str]:
    """A served best cell (wire JSON) against a direct ``run_point`` result."""
    served = cell_json(best["library"], best["routine"], best["n"], best["nb"],
                       best.get("tflops"), best.get("seconds"), best.get("flops"))
    local = cell_json(best["library"], direct.routine, direct.n, direct.nb,
                      direct.tflops, direct.seconds, direct.flops)
    if served != local:
        return [f"served {served.decode()} != direct {local.decode()}"]
    return []
