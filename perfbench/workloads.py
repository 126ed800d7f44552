"""Workload recipes: each builds a labelled dataset from the workload seed.

``scale`` shrinks the point counts (the self-test runs at 0.1); at 1.0 the
sizes are the benchmark's. Sizes are set so that one repetition of all
eight operations takes a few seconds on a 2-core machine, which gives a
median over several repetitions inside one run.
"""

from __future__ import annotations

import numpy as np

import iescluster as ic


def dense_root(seed: int, scale: float):
    # Three groups, two of them a fine pair: the tree has only a handful of
    # nodes, so the root n x n eigensolve carries most of the time.
    return ic.nested_scale_dataset(n_per_group=max(10, round(400 * scale)), seed=seed)


def deep_tree(seed: int, scale: float):
    # The scripts/runtime_benchmark.py recipe: near-duplicate resampled points
    # make ies-global build a tree of ~290 nodes with a large k at the root,
    # so traversal, per-node cost and k-means show.
    base = ic.nested_scale_dataset(n_per_group=max(10, round(100 * scale)), seed=seed)
    return ic.augment_with_noise(base, round(1200 * scale), noise_sd=0.05, seed=seed)


def wide_features(seed: int, scale: float):
    # Eight groups in m=200 dimensions: the n^2 m distance loop and the m x m
    # PCA carry the cost instead of the eigensolve, and the CSV is large.
    dims = 200
    rng = np.random.default_rng(seed)
    groups = [
        {"center": rng.normal(0.0, 5.0, dims).tolist(), "spread": 1.0,
         "count": max(4, round(100 * scale))}
        for _ in range(8)
    ]
    return ic.generate_synthetic(ic.make_spec(groups, dims=dims, seed=seed))


WORKLOADS = {
    "dense-root": dense_root,
    "deep-tree": deep_tree,
    "wide-features": wide_features,
}
