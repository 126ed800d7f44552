#!/usr/bin/env python3
"""Write a corpus of `cluster` reports for byte-for-byte comparison.

Runs the `cluster` command line in-process over a fixed set of synthetic
layouts and flag sets, and writes into OUT_DIR:

- ``data/<layout>.csv``: each input dataset; the ``two-groups`` layout
  is also written with every cell quoted (``csv.QUOTE_ALL``, CRLF line
  ends) as ``two-groups-quoted``, which the exact CSV parser reads, not the
  fast one;
- ``<layout>--<flags>.json``: each `cluster run` report without its
  ``runtime_ms`` field, the one part of a report that is not deterministic;
- ``<layout>--<flags>.csv``: each `cluster elbow` curve;
- ``<layout>--<flags>.meta``: each exit code and everything written to
  stderr.

Two corpora of the same code must be identical (`diff -r`), and a refactor
that claims to keep every result must leave the corpus unchanged. The
layouts cover one- to many-level trees, isolated-point ejection (far
outliers, and an affinity row that underflows at a fixed sigma^2), identical
points, 60 features, and (for data seed 0 only) a root of 1050 points, of
the order of the benchmark's roots, whose eigensolve is the largest in the
corpus (the top-k tridiagonal path on numpy's bundled OpenBLAS,
`iescluster.lapack`, as every layout's; a numpy without it takes `eigh`
throughout); the flag sets cover every mode, `--sigma`,
`njw --k`, the distance exponent and kNN knobs, both seeds and a usage
error.

Usage: python scripts/report_corpus.py OUT_DIR
"""

import contextlib
import csv
import io
import json
import os
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from iescluster import Dataset, augment_with_noise, nested_scale_dataset, save_dataset  # noqa: E402
from iescluster.cli import main as cluster_main  # noqa: E402

DATA_SEEDS = (0, 1)


def _groups(rng, centers, spread, count):
    blocks = [np.asarray(c, dtype=float) + rng.normal(0, spread, (count, len(c))) for c in centers]
    return np.vstack(blocks), np.repeat(np.arange(len(centers)), count)


def _with_extra(features, labels, extra):
    extra = np.asarray(extra, dtype=float)
    return (
        np.vstack([features, extra]),
        np.concatenate([labels, np.full(len(extra), labels.max() + 1)]),
    )


def layouts(seed: int) -> dict:
    """Name -> labeled Dataset, all drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    two = _groups(rng, [[0, 0, 0], [20, 0, 0]], 0.5, 40)
    nested = _groups(rng, [[0, 0], [1, 0], [50, 0], [51, 0]], 0.1, 30)
    outliers = _with_extra(*_groups(rng, [[0, 0, 0], [20, 0, 0]], 0.5, 40),
                           [[500, 500, 500], [-500, 300, 0]])
    duplicates = _with_extra(*_groups(rng, [[0, 0, 0], [20, 0, 0]], 0.5, 40),
                             np.tile([5.0, 5.0, 5.0], (10, 1)))
    wide = _groups(rng, np.eye(6, 60) * 30.0, 1.0, 20)
    # At sigma^2 = 1.5 every affinity of the point at -47 is subnormal, so the
    # point is ejected as isolated and the single round reruns on the rest:
    # two groups split there, one group ends the rerun as a leaf.
    near0, near10 = rng.uniform(-0.05, 0.05, 20), rng.uniform(9.95, 10.05, 20)
    subnormal = (np.concatenate([near0, near10, [-47.0]])[:, None], np.repeat([0, 1, 2], [20, 20, 1]))
    subnormal_one = (np.concatenate([near0, [-47.0]])[:, None], np.repeat([0, 1], [20, 1]))
    out = {name: Dataset(features=x, labels=y) for name, (x, y) in [
        ("two-groups", two), ("nested", nested), ("outliers", outliers),
        ("duplicates", duplicates), ("wide", wide), ("subnormal", subnormal),
        ("subnormal-one", subnormal_one),
    ]}
    out["deep-tree"] = augment_with_noise(
        nested_scale_dataset(n_per_group=40, seed=seed), 360, noise_sd=0.05, seed=seed
    )
    if seed == 0:
        out["nested-1050"] = nested_scale_dataset(n_per_group=350, seed=seed)
    return out


def flag_sets() -> list:
    """Each list is a subcommand and its options; the input and output
    options are added per run."""
    sets = []
    for seed in ("0", "1"):
        s = ["--seed", seed]
        sets += [["run", "--mode", mode] + s
                 for mode in ("ies-global", "ies-local", "els", "legacy-eigengap")]
        sets += [["run", "--mode", "njw", "--k", k] + s for k in ("2", "3", "5")]
        sets += [["run", "--mode", "legacy-eigengap", "--sigma", "1.5"] + s,
                 ["run", "--mode", "njw", "--k", "2", "--sigma", "1.5"] + s,
                 ["run", "--mode", "ies-local", "--distance-exponent", "1", "--knn", "3"] + s]
    sets += [
        ["run", "--mode", "njw"],  # usage error: njw needs --k
        ["elbow", "--k-min", "1", "--k-max", "8"],
        ["elbow", "--k-min", "1", "--k-max", "12", "--elbow-space", "raw"],
        ["elbow", "--k-min", "1", "--k-max", "8", "--sigma", "1.5"],
    ]
    return sets


# Layouts also written with every cell quoted.
QUOTED = ("two-groups",)


def save_quoted(dataset: Dataset, path: Path) -> None:
    """``save_dataset``'s table with every cell quoted and CRLF line ends."""
    save_dataset(dataset, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    with open(path, "w", newline="") as fh:
        csv.writer(fh, quoting=csv.QUOTE_ALL, lineterminator="\r\n").writerows(rows)


def run_one(argv: list, report: Path, meta: Path) -> None:
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        try:
            code = cluster_main(argv)
        except Exception as err:  # an uncaught error is a result too
            code = 1
            print(f"uncaught {type(err).__name__}: {err}", file=sys.stderr)
    if report.suffix == ".json" and report.exists():
        body = json.loads(report.read_text())
        body.pop("runtime_ms", None)
        report.write_text(json.dumps(body, indent=2, sort_keys=True) + "\n")
    meta.write_text(f"exit {code}\n{stderr.getvalue()}")


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(sys.argv[1])
    out.mkdir(parents=True, exist_ok=True)
    if any(out.iterdir()):
        print(f"error: {out} is not empty", file=sys.stderr)
        return 2
    # Paths relative to OUT_DIR keep error messages that name a file the same
    # wherever the corpus is written.
    os.chdir(out)
    Path("data").mkdir()
    for data_seed in DATA_SEEDS:
        inputs = []
        for name, dataset in layouts(data_seed).items():
            inputs.append((name, dataset, save_dataset))
            if name in QUOTED:
                inputs.append((f"{name}-quoted", dataset, save_quoted))
        for name, dataset, save in inputs:
            layout = f"{name}-d{data_seed}"
            data = Path("data") / f"{layout}.csv"
            save(dataset, data)
            for flags in flag_sets():
                stem = f"{layout}--{'_'.join(a.lstrip('-') for a in flags)}"
                suffix = ".json" if flags[0] == "run" else ".csv"
                report = Path(f"{stem}{suffix}")
                argv = [flags[0], "--input", str(data), "--has-header", "--label-col", "label",
                        "--output", str(report)] + flags[1:]
                run_one(argv, report, Path(f"{stem}.meta"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
