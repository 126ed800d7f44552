#!/usr/bin/env python3
"""Runtime scaling of each clustering mode on noise-augmented datasets.

Starts from a labeled multi-scale synthetic base, grows it to each target
size by resampling points per class and adding white noise, and times every
mode. Emits a CSV (size, mode, clusters, accuracy, f_measure,
cluster_ratio, runtime_ms). Accuracy and F score the majority-vote mapping,
which merges clusters of the same label, so both read 1.0 when every label
is split into many pure clusters; the cluster ratio (clusters / labels)
shows that over-segmentation.

Usage: python scripts/runtime_benchmark.py --sizes 300 600 1200 --output bench.csv
"""

import argparse
import csv
import sys

from iescluster import (
    augment_with_noise,
    els_cluster,
    evaluate,
    ies_cluster,
    legacy_eigengap_cluster,
    nested_scale_dataset,
    njw_outcome,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", type=int, nargs="+", default=[300, 600, 1200])
    parser.add_argument("--noise-sd", type=float, default=0.05)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", default="-", help="CSV path or - for stdout")
    args = parser.parse_args()

    base = nested_scale_dataset(n_per_group=100, seed=args.seed)
    runs = [
        ("legacy-eigengap", lambda x: legacy_eigengap_cluster(x, master_seed=0)),
        ("els", lambda x: els_cluster(x, master_seed=0)),
        ("ies-global", lambda x: ies_cluster(x, "global", master_seed=0)),
        ("ies-local", lambda x: ies_cluster(x, "local", master_seed=0)),
        ("njw(k=3)", lambda x: njw_outcome(x, 3, master_seed=0)),
    ]

    out = sys.stdout if args.output == "-" else open(args.output, "w", newline="")
    writer = csv.writer(out)
    writer.writerow(
        ["size", "mode", "clusters", "accuracy", "f_measure", "cluster_ratio", "runtime_ms"]
    )
    for size in sorted(args.sizes):
        ds = (
            base
            if size <= base.n
            else augment_with_noise(base, size, args.noise_sd, seed=args.seed)
        )
        for name, fn in runs:
            outcome = fn(ds.features)
            rep = evaluate(outcome.leaf_assignments, ds.labels, outcome.n_clusters)
            writer.writerow(
                [
                    ds.n,
                    name,
                    outcome.n_clusters,
                    f"{rep.accuracy:.4f}",
                    f"{rep.f_measure:.4f}",
                    f"{rep.indicator_cluster_ratio:.4f}",
                    f"{outcome.runtime_ms:.1f}",
                ]
            )
            out.flush()
    if out is not sys.stdout:
        out.close()


if __name__ == "__main__":
    main()
