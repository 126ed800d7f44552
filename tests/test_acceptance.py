"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them on success).

The cell-cycle benchmark criterion needs the public 384x17 five-phase CSV,
which cannot be redistributed here; point CELL_CYCLE_CSV at a local copy
(see README for the loader recipe) or the test skips.
"""

import os
import time
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from conftest import block_labels, ideal_block_affinity, partition_of, symmetric_eigen
from iescluster.affinity import normalized_laplacian
from iescluster.dataset import load_dataset
from iescluster.eigengap import eigengap_k
from iescluster.ies import els_cluster, ies_cluster, legacy_eigengap_cluster
from iescluster.kmeans import kmeans
from iescluster.linalg import gram_distances
from iescluster.njw import njw_cluster
from iescluster.scaling import (
    estimate_global_sigma,
    estimate_local_sigmas,
    manual_global_sigma,
)
from iescluster.synth import nested_scale_dataset
from iescluster.validation import (
    AssociationMatrix,
    ConfusionMatrix,
    association_matrix,
    confusion_from_association,
    evaluate,
    metrics,
)

CELL_CYCLE_PATHS = (
    os.environ.get("CELL_CYCLE_CSV"),
    str(Path(__file__).resolve().parent.parent / "data" / "cell_cycle.csv"),
)


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" -- {detail}" if detail else ""
    print(f"ACCEPTANCE {number} ({name}): {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed{suffix}"


def test_criterion_1_ideal_block_recovery():
    start = time.perf_counter()
    ok = True
    details = []
    for sizes in ((7, 9), (5, 6, 7), (12, 10, 8, 11, 9)):
        c = len(sizes)
        lap = normalized_laplacian(ideal_block_affinity(sizes))
        values = symmetric_eigen(lap).values
        multiplicity = int(np.sum(np.abs(values - 1.0) <= 1e-8))
        estimated = eigengap_k(values).k
        # data whose affinity is block-diagonal up to ~1e-11 tails: identical
        # points per block, centers 10 apart, sigma^2 = 2
        centers = np.zeros((c, 2))
        centers[:, 0] = np.arange(c) * 10.0
        data = np.vstack([np.tile(centers[i], (b, 1)) for i, b in enumerate(sizes)])
        assignments = njw_cluster(data, c, manual_global_sigma(2.0), seed=0)
        recovered = partition_of(assignments) == partition_of(block_labels(sizes))
        if multiplicity != c or estimated != c or not recovered:
            ok = False
        details.append(f"c={c}: mult={multiplicity} k={estimated} exact={recovered}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    report(1, "ideal block recovery", ok, "; ".join(details) + f"; {elapsed:.2f}s")


def test_criterion_2_multiscale_masking():
    start = time.perf_counter()
    ds = nested_scale_dataset(n_per_group=100, dims=20, spread=0.1, seed=0)
    assert ds.features.shape == (300, 20)
    legacy = legacy_eigengap_cluster(ds.features, master_seed=0)
    ies = ies_cluster(ds.features, "global", master_seed=0)
    f_measure = evaluate(ies.leaf_assignments, ds.labels, ies.n_clusters).f_measure
    elapsed = time.perf_counter() - start
    ok = legacy.n_clusters < 3 and ies.n_clusters >= 3 and f_measure >= 0.95
    ok = ok and elapsed < 10.0
    report(
        2,
        "multi-scale masking",
        ok,
        f"legacy leaves={legacy.n_clusters}, ies leaves={ies.n_clusters}, "
        f"F={f_measure:.3f}, {elapsed:.2f}s",
    )


def _find_cell_cycle_csv():
    for path in CELL_CYCLE_PATHS:
        if path and Path(path).exists():
            return path
    return None


def test_criterion_3_cell_cycle_benchmark():
    path = _find_cell_cycle_csv()
    if path is None:
        pytest.skip(
            "cell-cycle benchmark CSV not present (not redistributable); "
            "set CELL_CYCLE_CSV or place data/cell_cycle.csv -- see README"
        )
    ds = load_dataset(path, label_column="label")
    assert ds.features.shape == (384, 17)
    assert len(np.unique(ds.labels)) == 5

    start = time.perf_counter()
    ies_global = ies_cluster(ds.features, "global", master_seed=0)
    t_global = time.perf_counter() - start
    acc_global = evaluate(ies_global.leaf_assignments, ds.labels).accuracy

    start = time.perf_counter()
    els = els_cluster(ds.features, master_seed=0)
    t_els = time.perf_counter() - start
    acc_els = evaluate(els.leaf_assignments, ds.labels).accuracy

    start = time.perf_counter()
    ies_local = ies_cluster(ds.features, "local", master_seed=0)
    t_local = time.perf_counter() - start
    acc_local = evaluate(ies_local.leaf_assignments, ds.labels).accuracy

    ok_global = 5 <= ies_global.n_clusters <= 14 and acc_global >= 0.60 and t_global < 5
    ok_els = 3 <= els.n_clusters <= 8 and acc_els >= 0.55 and t_els < 5
    ok_local = 3 <= ies_local.n_clusters <= 8 and acc_local >= 0.55 and t_local < 5
    report(
        3,
        "cell-cycle benchmark",
        ok_global and ok_els and ok_local,
        f"ies-global K={ies_global.n_clusters} acc={acc_global:.3f} ({t_global:.1f}s); "
        f"els K={els.n_clusters} acc={acc_els:.3f} ({t_els:.1f}s); "
        f"ies-local K={ies_local.n_clusters} acc={acc_local:.3f} ({t_local:.1f}s)",
    )


def _global_sigma_oracle(data, threshold=0.95):
    """Independent scalar route: covariance by explicit loops, variances from
    its eigenvalues, cumulative-ratio cutoff, weighted-mean arithmetic."""
    n, m = data.shape
    means = [sum(data[i][j] for i in range(n)) / n for j in range(m)]
    cov = np.empty((m, m))
    for a in range(m):
        for b in range(m):
            cov[a, b] = sum(
                (data[i][a] - means[a]) * (data[i][b] - means[b]) for i in range(n)
            ) / (n - 1)
    eigvals = sorted(np.linalg.eigvalsh(cov), reverse=True)
    total = sum(eigvals)
    weights = [v / total for v in eigvals]
    cum, y = 0.0, m
    for i, w in enumerate(weights):
        cum += w
        if cum >= threshold - 1e-12:
            y = i + 1
            break
    return sum(weights[i] * eigvals[i] for i in range(y)) / sum(weights[:y])


def test_criterion_4_scaling_estimates_match_oracles():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 40))
        m = int(rng.integers(1, 10))
        data = rng.normal(0, rng.uniform(0.1, 20), (n, m))
        est = estimate_global_sigma(data)
        oracle = _global_sigma_oracle(data)
        worst = max(worst, abs(est.sigma_sq - oracle) / max(1.0, abs(oracle)))
    ok_global = worst <= 1e-9

    exact = True
    for _ in range(25):
        n = int(rng.integers(2, 35))
        m = int(rng.integers(1, 8))
        k = int(rng.integers(1, 10))
        data = rng.normal(0, rng.uniform(0.5, 30), (n, m))
        est = estimate_local_sigmas(data, gram_distances(data), k)
        k_eff = min(k, n - 1)
        for i in range(n):
            dists = sorted(
                np.sqrt(np.sum((data[i] - data[j]) ** 2)) for j in range(n) if j != i
            )
            if est.local_sigmas[i] != dists[k_eff - 1]:
                exact = False
    report(
        4,
        "scaling-estimate correctness",
        ok_global and exact,
        f"global worst rel err={worst:.2e}; local exact={exact}",
    )


def test_criterion_5_kmeans_oracle_equivalence():
    rng = np.random.default_rng(7)
    hits, trials = 0, 100
    monotone = True
    below = False
    for trial in range(trials):
        n = int(rng.integers(3, 11))
        k = int(rng.integers(1, min(3, n) + 1))
        data = rng.normal(0, 1, (n, int(rng.integers(1, 4))))
        result = kmeans(data, k, seed=trial)
        hist = np.array(result.sse_history)
        if not np.all(np.diff(hist) <= 1e-9 * np.maximum(1, hist[:-1])):
            monotone = False
        best = np.inf
        for assign in product(range(k), repeat=n):
            a = np.array(assign)
            total = 0.0
            for c in range(k):
                members = data[a == c]
                if len(members):
                    total += float(np.sum((members - members.mean(axis=0)) ** 2))
            best = min(best, total)
        if result.sse < best - 1e-9:
            below = True
        if result.sse <= best + 1e-9 * max(1.0, best):
            hits += 1
    ok = (not below) and monotone and hits >= 0.8 * trials
    report(
        5,
        "k-means oracle equivalence",
        ok,
        f"optimal in {hits}/{trials}, never below optimum={not below}, "
        f"sse monotone={monotone}",
    )


def test_criterion_6_validation_stack_arithmetic():
    # majority-vote example: 19 points of one class and 1 of another in a
    # single cluster, which therefore takes the dominant label
    labels = [14501] * 19 + [18001]
    cm = confusion_from_association(association_matrix([23] * 20, labels))
    ok_vote = cm.cluster_label_map[23] == 14501

    hand = ConfusionMatrix(
        counts=np.array([[3, 1], [0, 2]]),
        label_ids=(0, 1),
        cluster_label_map={0: 0, 1: 1},
    )
    rep = metrics(hand, 2)
    p0, r0 = Fraction(3, 3), Fraction(3, 4)
    p1, r1 = Fraction(2, 3), Fraction(2, 2)
    f0 = 2 * p0 * r0 / (p0 + r0)  # 6/7
    f1 = 2 * p1 * r1 / (p1 + r1)  # 4/5
    expected_f = float((4 * f0 + 2 * f1) / 6)
    ok_hand = (
        abs(rep.accuracy - 5 / 6) < 1e-12
        and abs(rep.precision - 8 / 9) < 1e-12
        and abs(rep.recall - 5 / 6) < 1e-12
        and abs(rep.f_measure - expected_f) < 1e-12
    )

    rng = np.random.default_rng(11)
    ok_trace = True
    for _ in range(200):
        counts = rng.integers(0, 25, (int(rng.integers(1, 7)), int(rng.integers(1, 7))))
        if counts.sum() == 0:
            counts[0, 0] = 1
        am = AssociationMatrix(
            counts=counts,
            label_ids=tuple(range(counts.shape[0])),
            cluster_ids=tuple(range(counts.shape[1])),
        )
        conf = confusion_from_association(am)
        rep_rand = metrics(conf, counts.shape[1])
        if abs(rep_rand.accuracy - np.trace(conf.counts) / counts.sum()) > 1e-12:
            ok_trace = False
    report(
        6,
        "validation-stack arithmetic",
        ok_vote and ok_hand and ok_trace,
        f"majority vote={ok_vote}, hand confusion={ok_hand}, trace/n x200={ok_trace}",
    )


def _tree_is_partition(outcome, n):
    seen = np.zeros(n, dtype=int)
    for leaf in outcome.leaves():
        seen[leaf.member_indices] += 1
    return bool(np.all(seen == 1)) and int(outcome.leaf_assignments.min()) >= 0


def test_criterion_7_determinism_and_partition():
    rng = np.random.default_rng(3)
    ok = True
    details = []
    datasets = [
        rng.normal(0, 1, (40, 5)),
        nested_scale_dataset(n_per_group=40, seed=1).features,
    ]
    runs = {
        "ies-global": lambda x, s: ies_cluster(x, "global", master_seed=s),
        "ies-local": lambda x, s: ies_cluster(x, "local", master_seed=s),
        "els": lambda x, s: els_cluster(x, master_seed=s),
        "legacy": lambda x, s: legacy_eigengap_cluster(x, master_seed=s),
    }
    for data in datasets:
        for name, fn in runs.items():
            for seed in (0, 1, 17):
                a = fn(data, seed)
                b = fn(data, seed)
                if not _tree_is_partition(a, data.shape[0]):
                    ok = False
                    details.append(f"{name}/seed{seed}: not a partition")
                if not np.array_equal(a.leaf_assignments, b.leaf_assignments):
                    ok = False
                    details.append(f"{name}/seed{seed}: rerun differs")
    for data in datasets:
        for mode in ("global", "local"):
            seq = ies_cluster(data, mode, master_seed=0, n_workers=1)
            par = ies_cluster(data, mode, master_seed=0, n_workers=4)
            same = np.array_equal(seq.leaf_assignments, par.leaf_assignments) and all(
                a.id == b.id
                and a.children == b.children
                and np.array_equal(a.member_indices, b.member_indices)
                for a, b in zip(seq.nodes, par.nodes)
            )
            if not same:
                ok = False
                details.append(f"ies-{mode}: parallel != sequential")
    report(7, "determinism & partition invariants", ok, "; ".join(details) or "all runs agree")


def test_criterion_8_eigensolver_quality():
    rng = np.random.default_rng(99)
    start = time.perf_counter()
    worst_residual = 0.0
    worst_ortho = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 201))
        a = rng.normal(0, rng.uniform(0.1, 10), (n, n))
        a = (a + a.T) / 2
        eig = symmetric_eigen(a)
        bound = 1e-8 * max(1.0, float(np.linalg.norm(a, "fro")))
        residual = a @ eig.vectors - eig.vectors * eig.values
        worst_residual = max(
            worst_residual, float(np.max(np.sqrt(np.sum(residual**2, axis=0)))) / bound
        )
        worst_ortho = max(
            worst_ortho,
            float(np.max(np.abs(eig.vectors.T @ eig.vectors - np.eye(n)))),
        )
    elapsed = time.perf_counter() - start
    ok = worst_residual <= 1.0 and worst_ortho <= 1e-8 and elapsed < 10.0
    report(
        8,
        "eigensolver quality",
        ok,
        f"worst residual/bound={worst_residual:.3f}, worst |V'V-I|={worst_ortho:.2e}, "
        f"{elapsed:.2f}s for 100 matrices",
    )
