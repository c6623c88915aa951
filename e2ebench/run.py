"""Run one benchmark workload and print its metrics.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  ``--trace 0`` times untraced passes for
``--seconds`` and prints every end-to-end metric of BENCHMARK.json;
``--trace 1`` spends half the budget on untraced passes and half on passes
traced per layer (see ``e2ebench/layers.py``) and prints every per-layer
metric.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; everything above it is
a human-readable report, and the full record (host block, spreads, span
records) is written under ``.e2ebench_out/``.

``setup_s`` is the median of :data:`SETUP_REPEATS` set-ups, each in a fresh
interpreter (``--setup-child``), timed from its spawn until it is ready to
run the first pass, and scaled by reference starts (:data:`REFERENCE_START`)
timed between them.  ``host_us_per_task`` is scaled by the host speed that
:mod:`e2ebench.calibrate` samples during the passes.

``--record-digest`` (paper-sweep only) records the sweep's output digest in
``e2ebench/expected_sweep.json`` instead of checking against it.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent

#: Set-ups per run, each in a fresh interpreter; ``setup_s`` is their median.
SETUP_REPEATS = 7
#: A set-up child still running after this long is stopped.
SETUP_TIMEOUT_S = 120.0
#: The reference start: a fresh interpreter that imports a fixed set of
#: modules ``repro`` needs but cannot change, then stamps its readiness.
#: Set-ups are scaled by it, like for like: process start and imports.
REFERENCE_START = (
    "import asyncio, hashlib, json, sqlite3, numpy, time; "
    "print(json.dumps({'ready': time.clock_gettime(time.CLOCK_MONOTONIC)}))"
)
#: Median reference start on the definition host (see README.md), seconds.
REFERENCE_START_S = 0.25
#: Slope of log set-up time on log reference start, fitted over whole runs
#: (see README.md).
SETUP_SCALE_EXPONENT = 0.75
#: Traced-run health bounds, stated here and checked on every traced run.
MAX_UNATTRIBUTED_SHARE = 0.10
MAX_TRACE_OVERHEAD = 6.0
#: Relative tolerance of the additivity check: the layer self times plus
#: unattributed against the boundary spans as the workloads time them.  The
#: gap is the entry and exit of the span objects, microseconds per pass.
ADDITIVITY_TOLERANCE = 1e-3

#: workload name -> (module, class)
WORKLOADS = {
    "paper-sweep": ("e2ebench.workloads", "PaperSweep"),
    "gemm-retained": ("e2ebench.workloads", "GemmRetained"),
    "gemm-stream": ("e2ebench.workloads", "GemmStream"),
    "tune-service": ("e2ebench.service", "TuneService"),
}


def _monotonic() -> float:
    """A clock that reads the same in every process of the host."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _setup_child(workload) -> int:
    """The ``--setup-child`` mode: set up once, report when ready, exit."""
    info = workload.setup()
    info["ready"] = _monotonic()
    print(json.dumps(info), flush=True)
    return 0


def _timed_child(cmd: list[str]) -> dict:
    """Run ``cmd``, which prints a JSON object with ``ready``, its readiness
    stamped on the host's monotonic clock, as its last line.  Returns that
    object, with ``ready`` replaced by ``setup_s``: the seconds from spawn
    until ready.  The child's own stamp keeps its exit out of the timing."""
    t0 = _monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=SETUP_TIMEOUT_S, check=False)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"{cmd[:3]} exited {proc.returncode}")
    info = json.loads(proc.stdout.strip().splitlines()[-1])
    info["setup_s"] = info.pop("ready") - t0
    return info


def _timed_setups(args) -> tuple[list[dict], list[float]]:
    """:data:`SETUP_REPEATS` set-ups, each in a fresh interpreter, timed from
    spawn until ready, each right after a reference start."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-child",
           "--workload", args.workload, "--seed", str(args.seed)]
    setups, references = [], []
    for _ in range(SETUP_REPEATS):
        references.append(
            _timed_child([sys.executable, "-c", REFERENCE_START])["setup_s"])
        setups.append(_timed_child(cmd))
    return setups, references


def _fail(message: str) -> int:
    print(f"e2ebench: {message}", file=sys.stderr)
    return 2


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="e2ebench/run.py", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digest", action="store_true")
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return _fail(f"no repro package under {ROOT / 'src'}; run from a checkout")
    if not (ROOT / "BENCH_runtime.json").is_file():
        return _fail("BENCH_runtime.json missing; run from a checkout")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    if args.workload not in WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.record_digest and args.workload != "paper-sweep":
        return _fail("--record-digest applies to paper-sweep only")
    module, cls = WORKLOADS[args.workload]
    workload = getattr(importlib.import_module(module), cls)(ROOT, args.seed)
    if args.setup_child:
        return _setup_child(workload)

    from e2ebench import layers
    from e2ebench.calibrate import Calibrator
    from e2ebench.stats import host_block, peak_rss_mb, spread

    host = host_block()
    calibrator = Calibrator()
    workload.clock = calibrator.clock
    try:
        setups, references = _timed_setups(args)
        setup_times = [s["setup_s"] for s in setups]
        setup_scale = (REFERENCE_START_S / median(references)) ** SETUP_SCALE_EXPONENT
        scaled_setup = [t * setup_scale for t in setup_times]
        calibrator.start()
        workload.setup()
        workload.prepare()
        first_pass_sample = len(calibrator.samples)
        inst = layers.Instruments()
        gc_monitor = layers.GcMonitor()
        gc_monitor.install()

        def run(budget: float, traced: bool) -> list[dict]:
            passes: list[dict] = []
            durations: list[float] = []
            start = time.perf_counter()
            while True:
                t0 = time.perf_counter()
                gc0 = (gc_monitor.collections, gc_monitor.pause_s)
                if traced:
                    inst.tracer.armed = True
                try:
                    result = workload.run_pass(inst, traced)
                finally:
                    inst.tracer.armed = False
                result["gc_collections"] = gc_monitor.collections - gc0[0]
                result["gc_pause_s"] = gc_monitor.pause_s - gc0[1]
                passes.append(result)
                durations.append(time.perf_counter() - t0)
                elapsed = time.perf_counter() - start
                if elapsed + median(durations) > budget:
                    return passes

        plain = run(args.seconds / 2 if args.trace else args.seconds, traced=False)
        # Traced passes run unsampled: the handler would bill to the layer
        # it interrupts.
        calibrator.stop()
        workload.clock = time.perf_counter
        traced = []
        if args.trace:
            inst.install()
            traced = run(args.seconds / 2, traced=True)
        gc_monitor.remove()
        pass_samples = calibrator.samples[first_pass_sample:]
        scale = calibrator.scale(pass_samples)
        host_speed = calibrator.speed(pass_samples)

        if args.record_digest:
            digest = dict(plain[-1]["digest"], checks=plain[-1]["tally"])
            from e2ebench.checks import EXPECTED_SWEEP

            EXPECTED_SWEEP.write_text(json.dumps(digest, indent=2, sort_keys=True) + "\n")
            print(f"recorded {EXPECTED_SWEEP}", file=sys.stderr)
            return 0

        errors = [e for p in plain + traced for e in p["errors"]]
        attempted = sum(p["attempted"] for p in plain + traced)
        report = workload.report(plain)
        ops = [x for p in plain for x in p["ops_ms"]]
        per_task = [p["wall_s"] / p["tasks"] * 1e6 for p in plain]
        per_task_scaled = [v * scale for v in per_task]
        end_to_end = {
            "setup_s": (median(scaled_setup), "s", spread(scaled_setup), len(setup_times)),
            "host_us_per_task": (median(per_task_scaled), "us", spread(per_task_scaled),
                                 len(per_task)),
            "peak_rss_mb": (peak_rss_mb(), "MB", None, 1),
        }
        figures = dict(report)
        figures.update({
            "raw_setup_s": (median(setup_times), "s", spread(setup_times), len(setup_times)),
            "raw_host_us_per_task": (median(per_task), "us", spread(per_task), len(per_task)),
            "op_ms_p50": (median(ops), "ms", spread(ops), len(ops)),
            "host_speed": (host_speed, "ratio", None, len(pass_samples)),
            "scale": (scale, "ratio", None, len(pass_samples)),
            "reference_start_s": (median(references), "s", spread(references),
                                  len(references)),
            "setup_scale": (setup_scale, "ratio", None, len(references)),
        })
        figures.update(end_to_end)
        gc_counts = [p["gc_collections"] for p in plain]
        figures["gc_collections_per_pass"] = (median(gc_counts), "count", None, len(gc_counts))

        per_layer = {}
        health = {}
        if traced:
            per_layer, health = _layer_metrics(inst, workload, plain, traced, setups)
            errors += inst.tracer.coverage_errors(health["boundary_s"],
                                                  ADDITIVITY_TOLERANCE)
            unattributed = per_layer["unattributed_s"][0]
            root = per_layer["root_s"][0]
            overhead = per_layer["trace_overhead_ratio"][0]
            if unattributed > MAX_UNATTRIBUTED_SHARE * root:
                errors.append(f"unattributed {unattributed:.4f} s is over "
                              f"{MAX_UNATTRIBUTED_SHARE:.0%} of the root {root:.4f} s")
            if overhead > MAX_TRACE_OVERHEAD:
                errors.append(f"trace overhead {overhead:.2f}x is over "
                              f"{MAX_TRACE_OVERHEAD}x")
            attempted += 3
        figures["error_rate"] = (len(errors) / attempted, "ratio", None, attempted)
        host["loadavg_end"] = list(os.getloadavg())

        _print_report(args, host, figures, per_layer, errors, plain, len(traced))
        _write_out(args, host, figures, per_layer, health, errors, plain, traced, inst)
        failed = len(errors)
        metrics = (
            {name: {"value": v[0], "unit": v[1]} for name, v in end_to_end.items()}
            if not args.trace else
            {name: {"value": v[0], "unit": v[1]} for name, v in per_layer.items()}
        )
        print(json.dumps({"correct": failed == 0, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
        return 0
    finally:
        calibrator.stop()
        workload.close()


#: (metric, layer whose self time it reports)
SELF_TIMES = (
    ("dispatch.self_s", "dispatch"),
    ("executor.submit_s", "executor.submit"),
    ("api.self_s", "api"),
    ("scheduler.self_s", "scheduler"),
    ("transfer.self_s", "transfer"),
    ("fabric.self_s", "fabric"),
    ("cache.self_s", "cache"),
    ("directory.self_s", "directory"),
    ("dataflow.self_s", "dataflow"),
    ("build.self_s", "build"),
    ("library.self_s", "library"),
    ("library.runtime_setup_s", "library.runtime_setup"),
    ("trace.self_s", "trace"),
    ("sweep.self_s", "sweep"),
    ("store.self_s", "store"),
    ("store.put_self_s", "store.put"),
    ("store.load_s", "store.load"),
    ("service.self_s", "service"),
    ("client.self_s", "client"),
    ("loop.self_s", "loop"),
    ("loop.idle_s", "loop.idle"),
)


def _layer_metrics(inst, workload, plain, traced, setups) -> tuple[dict, dict]:
    """Per-layer metrics, each per traced pass."""
    tr = inst.tracer
    n = len(traced)
    totals = inst.totals
    counts = tr.counts()
    out: dict[str, tuple] = {}
    for metric, layer in SELF_TIMES:
        out[metric] = (tr.self_s(layer) / n, "s")

    def per_pass(value: float) -> float:
        return value / n

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    tasks = totals["tasks"]
    out["tasks"] = (per_pass(tasks), "count")
    out["engine.events_per_task"] = (ratio(totals["events"], tasks), "ratio")
    out["scheduler.pushes"] = (per_pass(counts.get("scheduler.pushes", 0)), "count")
    out["scheduler.pops"] = (per_pass(counts.get("scheduler.pops", 0)), "count")
    out["scheduler.empty_pop_ratio"] = (
        ratio(counts.get("scheduler.empty_pops", 0), counts.get("scheduler.pops", 0)),
        "ratio")
    out["scheduler.steals"] = (per_pass(totals["steals"]), "count")
    out["transfer.residency_calls"] = (
        per_pass(counts.get("transfer.residency_calls", 0)), "count")
    for key in ("h2d", "d2h", "p2p", "optimistic_forwards"):
        out[f"transfer.{key}"] = (per_pass(totals[key]), "count")
    out["fabric.reservations"] = (per_pass(counts.get("fabric.reservations", 0)), "count")
    out["fabric.host_bytes"] = (per_pass(totals["host_bytes"]), "bytes")
    out["fabric.p2p_bytes"] = (per_pass(totals["p2p_bytes"]), "bytes")
    out["cache.hit_ratio"] = (
        ratio(totals["cache_hits"], totals["cache_hits"] + totals["cache_misses"]),
        "ratio")
    out["cache.evictions"] = (per_pass(totals["evictions"]), "count")
    out["directory.calls"] = (per_pass(tr.calls("directory")), "count")
    out["dataflow.edges_per_task"] = (ratio(totals["edges"], totals["graph_tasks"]),
                                      "ratio")
    out["trace.intervals"] = (per_pass(counts.get("trace.intervals", 0)), "count")
    out["store.puts"] = (per_pass(counts.get("store.puts", 0)), "count")
    out["service.singleflight_waits"] = (
        per_pass(counts.get("service.singleflight_waits", 0)), "count")
    fingerprints = [s.get("fingerprint_s", 0.0) for s in setups]
    out["store.fingerprint_s"] = (median(fingerprints), "s")
    defaults = {"sweep.cells_simulated": "count", "sweep.memo_hit_ratio": "ratio",
                "store.hits": "count", "service.batches": "count"}
    extra = workload.layer_counts(traced)
    for metric, unit in defaults.items():
        out[metric] = (extra.get(metric, 0.0), unit)
    out["gc.collections"] = (per_pass(sum(p["gc_collections"] for p in traced)), "count")
    out["gc.pause_s"] = (per_pass(sum(p["gc_pause_s"] for p in traced)), "s")
    root = tr.root_s
    out["root_s"] = (root / n, "s")
    out["unattributed_s"] = (tr.unattributed_s / n, "s")
    walls_plain = median([p["wall_s"] for p in plain])
    walls_traced = median([p["wall_s"] for p in traced])
    out["trace_overhead_ratio"] = (walls_traced / walls_plain, "ratio")
    health = {"root_s": root, "boundary_s": sum(p["boundary_s"] for p in traced),
              "self_times": tr.self_times(), "counts": counts}
    return out, health


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _print_report(args, host, figures, per_layer, errors, plain, n_traced) -> None:
    print(f"== e2ebench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}: {len(plain)} untraced "
          f"pass(es), {n_traced} traced ==")
    print(f"host: nproc={host['nproc']} cpu={host['cpu']!r} python={host['python']} "
          f"loadavg start={host['loadavg_start']} end={host['loadavg_end']}")
    for name, (value, unit, spr, count) in figures.items():
        extra = f"  n={count}" + (f" IQR/median={spr:.3f}" if spr is not None else "")
        print(f"  {name:<28} {_fmt(value):>14} {unit:<6}{extra}")
    for check in plain[-1].get("failing_checks", ()):
        print(f"  shape check FAIL (reported as recorded, not a benchmark failure): {check}")
    if per_layer:
        print("per layer (per traced pass; transfer reads of the coherence "
              "directory's arrays bill to transfer.self_s):")
        for name, (value, unit) in per_layer.items():
            print(f"  {name:<28} {_fmt(value):>14} {unit}")
    for error in errors[:20]:
        print(f"  CHECK FAILED: {error}")
    if len(errors) > 20:
        print(f"  ... {len(errors) - 20} more failed checks")


def _write_out(args, host, figures, per_layer, health, errors, plain, traced, inst) -> None:
    out_dir = ROOT / ".e2ebench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    strip = ("digest", "latency_ms", "ops_ms")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": host,
        "figures": {k: {"value": v[0], "unit": v[1], "spread": v[2], "samples": v[3]}
                    for k, v in figures.items()},
        "per_layer": {k: {"value": v[0], "unit": v[1]} for k, v in per_layer.items()},
        "health": health, "errors": errors,
        "passes": [{k: v for k, v in p.items() if k not in strip} for p in plain + traced],
        "spans": [list(r) for r in inst.tracer.records],
    }
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")


if __name__ == "__main__":
    sys.exit(main())
