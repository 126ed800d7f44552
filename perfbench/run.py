#!/usr/bin/env python3
"""Benchmark of the iescluster library, driven from outside it.

    python3 perfbench/run.py --workload deep-tree --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``. With ``--trace 0`` the eight operations of suite.OPS are timed
with no instrumentation for ``--seconds`` seconds and the end-to-end metrics
are reported (medians over the repetitions). With ``--trace 1`` the run
times a few untraced repetitions, then wraps the library's public functions
(suite.LAYERS) and runs one traced repetition, and reports the per-layer
metrics; the spans go to ``perfbench/out/``.

Every result is checked (suite.Checker). The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
DIGESTS = HERE / "expected_digests.json"
MIN_REPS = 3
PROBES = 3  # fresh processes per run, for setup_s and the threaded peak RSS
WARMUP_STRIDE = 8  # the warm-up runs every operation on every 8th point
DEFAULT_SEED = 0


def import_library() -> float:
    """Import iescluster from this checkout's src/; return the seconds taken."""
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import iescluster
    except ImportError as err:
        sys.exit(f"perfbench: cannot import iescluster from {ROOT / 'src'}: {err}")
    if Path(iescluster.__file__).resolve().parent != ROOT / "src" / "iescluster":
        sys.exit(f"perfbench: iescluster was imported from {iescluster.__file__}, "
                 f"not from {ROOT / 'src'}")
    return time.perf_counter() - start


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=1.0,
                   help="shrink the workload (the self-test uses 0.1)")
    p.add_argument("--probe", action="store_true",
                   help="only set up and make one n_workers=nproc call; print the "
                        "set-up seconds and the peak RSS as JSON and exit")
    p.add_argument("--record-digests", action="store_true",
                   help="store this run's result digests as the expected ones")
    return p.parse_args(argv)


def machine_record(nproc: int) -> dict:
    import ctypes
    import platform

    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    threads = None
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                threads = getter()
                break
    return {
        "nproc": nproc,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads,
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def set_up(workload: str, seed: int, scale: float, tag: str):
    """Build the inputs, write the CSV and warm up on a slice of the data."""
    import suite
    from iescluster import Dataset, save_dataset
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    data = WORKLOADS[workload](seed, scale)

    def context(ds, name):
        csv_path = OUT / f"{name}.csv"
        save_dataset(ds, csv_path)
        return suite.Context(
            x=ds.features, labels=ds.labels, seed=seed, nproc=nproc,
            csv_path=str(csv_path), report_path=str(OUT / f"{name}-report.json"),
        )

    ctx = context(data, f"{workload}-s{seed}-{tag}")
    warm = Dataset(features=data.features[::WARMUP_STRIDE], labels=data.labels[::WARMUP_STRIDE])
    warm_ctx = context(warm, f"{workload}-s{seed}-{tag}-warmup")
    try:
        suite.run_repetition(warm_ctx, suite.Checker(warm_ctx, None), {})
    finally:
        remove_files(warm_ctx)
    return ctx


def remove_files(ctx) -> None:
    for path in (ctx.csv_path, ctx.report_path):
        if os.path.exists(path):
            os.remove(path)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_probes(args) -> list[dict]:
    """Fresh processes that set up, as a user does first, then make one
    n_workers=nproc call: their set-up seconds and peak RSS."""
    samples = []
    for _ in range(PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe",
             "--workload", args.workload, "--seed", str(args.seed), "--scale", str(args.scale)],
            cwd=ROOT, capture_output=True, text=True, timeout=150,
        )
        if proc.returncode != 0:
            sys.exit(f"perfbench: probe failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


def measure(ctx, checker, seconds: float, times: dict | None = None) -> dict:
    """Repeat the operations, adding to ``times``, until another repetition
    would pass ``seconds`` from the call; at least MIN_REPS in all."""
    import suite

    times = {} if times is None else times
    start = time.perf_counter()
    while True:
        rep_start = time.perf_counter()
        suite.run_repetition(ctx, checker, times)
        now = time.perf_counter()
        if len(times[suite.OPS[0]]) >= MIN_REPS and (now - start) + (now - rep_start) > seconds:
            return times


def load_expected(args) -> dict | None:
    if args.seed != DEFAULT_SEED or args.scale != 1.0 or args.record_digests:
        return None
    if not DIGESTS.exists():
        print("perfbench: no stored digests; digest check skipped", file=sys.stderr)
        return None
    return json.loads(DIGESTS.read_text()).get(args.workload)


def record_digests(workload: str, digests: dict) -> None:
    stored = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    stored[workload] = dict(sorted(digests.items()))
    DIGESTS.write_text(json.dumps(stored, indent=2, sort_keys=True) + "\n")


def print_table(times: dict, checker, extra: dict) -> None:
    print(f"{'operation':16s} {'median_s':>9s} {'min_s':>8s} {'max_s':>8s} {'n':>3s} "
          f"{'clusters':>8s} {'F':>7s} {'accuracy':>8s}")
    for op, samples in times.items():
        q = checker.quality.get(op, {})
        print(f"{op:16s} {statistics.median(samples):9.4f} {min(samples):8.4f} "
              f"{max(samples):8.4f} {len(samples):3d} {q.get('n_clusters', '-'):>8} "
              f"{q.get('f_measure', float('nan')):7.4f} {q.get('accuracy', float('nan')):8.4f}")
    for name, (value, unit) in extra.items():
        print(f"{name:28s} {value:12.6g} {unit}")
    for reason in checker.reasons[:20]:
        print(f"FAILED {reason}")


def main(argv=None) -> int:
    args = parse_args(argv)
    import_s = import_library()

    import suite
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    tag = str(os.getpid())
    start = time.perf_counter()
    ctx = set_up(args.workload, args.seed, args.scale, tag)
    setup_s = import_s + time.perf_counter() - start
    try:
        if args.probe:
            suite.OPERATIONS["ies_global_par"](ctx)
            print(json.dumps({"setup_s": setup_s, "peak_rss_mb": peak_rss_mb()}))
            return 0
        checker = suite.Checker(ctx, load_expected(args))
        machine = machine_record(ctx.nproc)
        print("machine " + json.dumps(machine, sort_keys=True))
        if args.trace:
            metrics = traced_run(args, ctx, checker, machine)
        else:
            metrics = untraced_run(args, ctx, checker, setup_s)
    finally:
        remove_files(ctx)
    if args.record_digests:
        if checker.failed:
            print("\n".join(f"FAILED {reason}" for reason in checker.reasons[:20]))
            sys.exit(f"perfbench: {checker.failed} operations failed; digests not recorded")
        record_digests(args.workload, checker.digests)
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0


def untraced_run(args, ctx, checker, setup_s: float) -> dict:
    import suite

    start = time.perf_counter()
    probes = run_probes(args)
    times: dict[str, list[float]] = {}
    suite.run_repetition(ctx, checker, times, ops=suite.OPS[:-1])
    # Peak RSS of the single-threaded operations: after set-up and their
    # first pass, before the threaded call. The threaded call's peak is
    # taken in fresh processes (run_probes), because in this process what it
    # and later passes add is allocator fragmentation that varies with
    # thread timing (by up to 40 MB on dense-root), not with the input.
    single_rss_mb = peak_rss_mb()
    par_rss_mb = statistics.median(p["peak_rss_mb"] for p in probes)
    suite.run_repetition(ctx, checker, times, ops=suite.OPS[-1:])
    measure(ctx, checker, args.seconds - (time.perf_counter() - start), times)
    setup_samples = [setup_s] + [p["setup_s"] for p in probes]
    metrics = {"setup_s": {"value": statistics.median(setup_samples), "unit": "s"}}
    for op, samples in times.items():
        metrics[f"{op}_s"] = {"value": statistics.median(samples), "unit": "s"}
    metrics["peak_rss_mb"] = {"value": max(single_rss_mb, par_rss_mb), "unit": "MB"}
    metrics["passed_share"] = {
        "value": 1.0 - checker.failed / checker.attempted, "unit": "ratio",
    }
    extra = {
        f"setup_s (median of {len(setup_samples)})": (metrics["setup_s"]["value"], "s"),
        "peak_rss_mb": (metrics["peak_rss_mb"]["value"], "MB"),
        "  single-threaded pass": (single_rss_mb, "MB"),
        f"  threaded call (median of {len(probes)})": (par_rss_mb, "MB"),
        "failed_share": (checker.failed / checker.attempted, "ratio"),
        "ies_global_overseg": (checker.quality.get("ies_global", {}).get("overseg", 0.0), "ratio"),
        "ies_local_overseg": (checker.quality.get("ies_local", {}).get("overseg", 0.0), "ratio"),
    }
    print(f"workload {args.workload} seed {args.seed}: {len(times['ies_global'])} repetitions, "
          f"set-up samples {[round(s, 4) for s in setup_samples]}")
    print_table(times, checker, extra)
    return metrics


def traced_run(args, ctx, checker, machine: dict) -> dict:
    import suite
    import tracer as tr

    untraced = measure(ctx, checker, args.seconds / 2)
    tracer = tr.Tracer(suite.LAYERS)
    traced: dict[str, list[float]] = {}
    tracer.install()
    try:
        suite.run_repetition(ctx, checker, traced, lambda name: tracer.operation("bench." + name))
    finally:
        tracer.uninstall()
    overhead_s = sum(t[0] for t in traced.values()) - sum(
        statistics.median(untraced[op]) for op in traced
    )
    # The benchmark's own checks also call library functions (evaluate);
    # their spans are kept in the trace file but left out of the layers.
    check_ops = {s.op for s in tracer.spans if s.parent is None and s.name == "bench.check"}
    summary = tr.summarize([s for s in tracer.spans if s.op not in check_ops])
    metrics = suite.layer_metrics(summary, overhead_s, checker.quality)
    ops = tr.by_operation(tracer.spans)
    checks = ops.pop("bench.check", None)
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{args.workload}-s{args.seed}.json"
    trace_path.write_text(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "machine": machine,
        "missing": tracer.missing,
        "untraced_median_s": {op: statistics.median(s) for op, s in untraced.items()},
        "operations": ops,
        "checks": checks,
        "layers": summary,
        "spans": [asdict(s) for s in tracer.spans],
    }))
    print(f"workload {args.workload} seed {args.seed}: trace written to "
          f"{trace_path.relative_to(ROOT)}; overhead {overhead_s:.4f} s")
    for op, entry in ops.items():
        top = sorted(entry["layers"].items(), key=lambda kv: -kv[1]["self_s"])[:4]
        shares = ", ".join(f"{name} {layer['share']:.0%}" for name, layer in top)
        print(f"{op[len('bench.'):]:22s} wall {entry['wall_s']:8.4f} s  busy {entry['busy_s']:8.4f} s  {shares}")
    for reason in checker.reasons[:20]:
        print(f"FAILED {reason}")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
