#!/usr/bin/env python3
"""Self-test of the benchmark. Run from the root of a checkout:

    python3 perfbench/selftest.py

1. Every workload, at a tenth of its size, with tracing off and on, emits
   exactly the metrics BENCHMARK.json names, with their units, and passes.
2. A deliberately corrupted partition, and a result that changes between
   repeats, are each counted as a failed operation.
3. Without the library's sources next to it, the benchmark exits non-zero
   and prints no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_benchmark(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "0.1"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def check_metrics_emitted(bench: dict) -> list[str]:
    errors = []
    for workload in bench["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_benchmark(ROOT, workload["name"], trace)
            where = f"{workload['name']} --trace {trace}"
            if proc.returncode != 0:
                errors.append(f"{where}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expected = {m["name"]: m["unit"] for m in bench[key]}
            emitted = {name: m["unit"] for name, m in result["metrics"].items()}
            if emitted != expected:
                errors.append(f"{where}: metrics differ from BENCHMARK.json: "
                              f"{sorted(set(emitted.items()) ^ set(expected.items()))}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                errors.append(f"{where}: {result['failed']} of {result['attempted']} failed")
    return errors


def check_corruption_counted() -> list[str]:
    sys.path.insert(0, str(HERE))
    import run

    run.import_library()
    import iescluster
    import suite

    ctx = run.set_up("dense-root", 3, 0.1, "selftest")
    els, njw = iescluster.els_cluster, iescluster.njw_outcome
    calls = []

    def dropped_point(*args, **kwargs):
        outcome = els(*args, **kwargs)
        leaf = outcome.leaves()[0]
        leaf.member_indices = leaf.member_indices[1:]
        return outcome

    def unstable(*args, **kwargs):
        # A valid partition that only the repeat check can tell apart: one
        # label split in two still recovers every label with F = 1.
        calls.append(1)
        if len(calls) > 1:
            kwargs["k"] += 1
        return njw(*args, **kwargs)

    checker = suite.Checker(ctx, None)
    iescluster.els_cluster, iescluster.njw_outcome = dropped_point, unstable
    try:
        for _ in range(2):
            suite.run_repetition(ctx, checker, {})
    finally:
        iescluster.els_cluster, iescluster.njw_outcome = els, njw
        run.remove_files(ctx)
    failed_ops = sorted({reason.split(":")[0] for reason in checker.reasons})
    failed_share = checker.failed / checker.attempted
    if failed_ops != ["els", "njw"] or failed_share != 3 / 16:
        return [f"corruption not counted as expected: failed_share {failed_share}, "
                f"reasons {checker.reasons}"]
    return []


def check_fails_without_library() -> list[str]:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = run_benchmark(bare, "dense-root", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"benchmark without the library exited {proc.returncode}: {proc.stdout!r}"]
    return []


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for name, check in (
        ("every metric emitted with its unit", lambda: check_metrics_emitted(bench)),
        ("corrupted results counted as failed", check_corruption_counted),
        ("exits non-zero without the library", check_fails_without_library),
    ):
        errors = check()
        print(f"{'PASS' if not errors else 'FAIL'} {name}")
        for error in errors:
            print(f"  {error}")
        failures += bool(errors)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
