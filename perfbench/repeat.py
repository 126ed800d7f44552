#!/usr/bin/env python3
"""Run the benchmark untraced once per seed and summarize every metric.

    python3 perfbench/repeat.py --workload deep-tree --seeds 1-10 --output perfbench/out/deep.json

Each run uses BENCHMARK.json's run_seconds. Per metric the summary gives the
median, the quartiles from statistics.quantiles(values, n=4) and the spread
(Q3 - Q1) / median, next to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"), help="e.g. 1-10")
    p.add_argument("--output", help="write the runs and the summary as JSON")
    args = p.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
             "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=300,
        )
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct {result['correct']}, "
              f"{result['failed']} of {result['attempted']} failed", flush=True)
        runs.append({"seed": seed, **result})

    summary = {}
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        spread = (q3 - q1) / median if median else 0.0
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                         "unit": runs[0]["metrics"][name]["unit"]}
        bound = bounds.get(name)
        print(f"{name:42s} median {median:12.6g}  spread {spread:6.3f}"
              + (f"  bound {bound}" if bound is not None else ""))
    if args.output:
        Path(args.output).write_text(json.dumps(
            {"workload": args.workload, "runs": runs, "summary": summary},
            indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
