"""Run-to-run spread of the end-to-end metrics, over seeds.

    python3 e2ebench/spread.py --workload gemm-stream --runs 10 [--seconds 15]

Runs ``e2ebench/run.py`` once per seed (0, 1, …), one run at a time, and
prints per metric the median of the runs and the distance between their
first and third quartiles (``statistics.quantiles(values, n=4)``) as a share
of that median, next to the metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              check=False)
        if proc.returncode != 0 or not proc.stdout.strip():
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        row = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} "
              + " ".join(f"{k}={v:.6g}" for k, v in row.items()), flush=True)
        for name, value in row.items():
            values.setdefault(name, []).append(value)
    print(f"{args.workload}: {args.runs} runs of {seconds:g} s")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        print(f"  {name:<18} median {med:.6g}  spread {(q3 - q1) / med:.3f}  "
              f"bound {bounds.get(name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
