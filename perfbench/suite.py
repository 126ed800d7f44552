"""The eight timed operations, their correctness checks and the layer table.

Every library call goes through a module attribute looked up at call time
(``ic.ies_cluster``, ``cli.main``), so the tracer's wrappers are seen.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import time
from dataclasses import dataclass

import numpy as np

import iescluster as ic
from iescluster import cli
from tracer import Layer

# The threaded run goes last, so that peak RSS can be read after the
# single-threaded operations (see run.py).
OPS = (
    "ies_global", "ies_local", "els", "legacy", "njw", "elbow", "cli_run",
    "ies_global_par",
)
# Modes whose answer must recover every label with F >= MIN_F; legacy masks
# the fine pair by design and is only reported.
QUALITY_GATED = ("ies_global", "ies_local", "els", "njw")
MIN_F = 0.99
ELBOW_K = (1, 12)


@dataclass
class Context:
    """One workload's inputs, as the operations see them."""

    x: np.ndarray
    labels: np.ndarray
    seed: int
    nproc: int
    csv_path: str
    report_path: str

    @property
    def n_labels(self) -> int:
        return int(np.unique(self.labels).size)


def _cli_run(ctx: Context) -> int:
    code = cli.main([
        "run", "--mode", "ies-global", "--input", ctx.csv_path,
        "--label-col", "label", "--has-header", "--seed", "0",
        "--output", ctx.report_path,
    ])
    if code != 0:
        raise RuntimeError(f"cluster run exited with code {code}")
    return code


OPERATIONS = {
    "ies_global": lambda c: ic.ies_cluster(c.x, "global", master_seed=0),
    "ies_local": lambda c: ic.ies_cluster(c.x, "local", master_seed=0),
    "els": lambda c: ic.els_cluster(c.x, master_seed=0),
    "legacy": lambda c: ic.legacy_eigengap_cluster(c.x, master_seed=0),
    "njw": lambda c: ic.njw_outcome(c.x, k=c.n_labels, master_seed=0),
    "ies_global_par": lambda c: ic.ies_cluster(c.x, "global", master_seed=0, n_workers=c.nproc),
    "elbow": lambda c: ic.elbow_sweep(c.x, ELBOW_K, ic.estimate_global_sigma(c.x), c.seed),
    "cli_run": _cli_run,
}


# -- digests ----------------------------------------------------------------

def _sha(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()[:16]


def partition_digest(assignments) -> str:
    """Digest of the partition, independent of how the leaves are numbered."""
    _, first, inverse = np.unique(
        np.asarray(assignments), return_index=True, return_inverse=True
    )
    canonical = np.argsort(np.argsort(first))[inverse]
    return _sha(canonical.astype(np.int64).tobytes())


def tree_digest(outcome) -> str:
    h = hashlib.sha256()
    for node in outcome.nodes:
        h.update(repr((node.id, node.depth, node.children, node.estimated_k,
                       node.leaf_reason)).encode())
        h.update(np.asarray(node.member_indices, dtype=np.int64).tobytes())
        if node.sigma is not None:
            h.update(repr((node.sigma.kind, node.sigma.sigma_sq)).encode())
            if node.sigma.local_sigmas is not None:
                h.update(np.asarray(node.sigma.local_sigmas).tobytes())
    return h.hexdigest()[:16]


def curve_digest(curve) -> str:
    # Six significant digits: the curve is compared across machines whose
    # BLAS may differ in the last bits.
    return _sha(repr([(int(k), f"{v:.6g}") for k, v in curve]).encode())


# -- checks -----------------------------------------------------------------

def _outcome_partition_errors(outcome, n: int) -> list[str]:
    leaves = outcome.leaves()
    members = np.concatenate([leaf.member_indices for leaf in leaves])
    if members.size != n or not np.array_equal(np.sort(members), np.arange(n)):
        return ["leaves do not partition the points"]
    for leaf in leaves:
        if np.any(outcome.leaf_assignments[leaf.member_indices] != leaf.id):
            return ["leaf_assignments disagree with the leaves"]
    return []


def _report_partition_errors(report: dict, n: int) -> list[str]:
    assign = np.asarray(report["assignments"])
    sizes = {node["id"]: node["size"] for node in report["tree"] if not node["children"]}
    ids, counts = np.unique(assign, return_counts=True)
    if assign.size != n or dict(zip(ids.tolist(), counts.tolist())) != sizes:
        return ["report assignments do not partition the points into the leaves"]
    return []


def quality(assignments, labels) -> dict:
    n_clusters = int(np.unique(assignments).size)
    n_labels = int(np.unique(labels).size)
    rep = ic.evaluate(assignments, labels)
    return {
        "n_clusters": n_clusters,
        "f_measure": rep.f_measure,
        "accuracy": rep.accuracy,
        "label_recovery": rep.indicator_label_recovery,
        "overseg": max(n_clusters / n_labels, n_labels / n_clusters),
    }


class Checker:
    """Checks each result and counts failed operations."""

    def __init__(self, ctx: Context, expected_digests: dict | None):
        self.ctx = ctx
        self.expected = expected_digests
        self.first_digest: dict[str, str] = {}
        self.reference = None  # latest ies_global outcome, for par and cli
        self.quality: dict[str, dict] = {}
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, op: str, result, error: BaseException | None) -> None:
        self.attempted += 1
        if error is not None:
            reasons = [f"raised {error!r}"]
        else:
            try:
                reasons = self._check(op, result)
            except Exception as err:  # a malformed result fails its check
                reasons = [f"check raised {err!r}"]
        if reasons:
            self.failed += 1
            self.reasons.extend(f"{op}: {r}" for r in reasons)

    def _check(self, op: str, result) -> list[str]:
        ctx, n = self.ctx, self.ctx.x.shape[0]
        if op == "elbow":
            values = np.array([v for _, v in result], dtype=float)
            if len(result) != ELBOW_K[1] - ELBOW_K[0] + 1 or not np.all(np.isfinite(values)):
                return ["elbow curve has the wrong length or non-finite values"]
            return self._compare(op, curve_digest(result))
        if op == "cli_run":
            with open(ctx.report_path) as fh:
                report = json.load(fh)
            reasons = _report_partition_errors(report, n)
            assign = np.asarray(report["assignments"])
            if self.reference is None or not np.array_equal(
                assign, self.reference.leaf_assignments
            ):
                reasons.append("report assignments differ from the library's")
        else:
            reasons = _outcome_partition_errors(result, n)
            assign = result.leaf_assignments
            if op == "ies_global":
                self.reference = result
            if op == "ies_global_par" and (
                self.reference is None or tree_digest(result) != tree_digest(self.reference)
            ):
                reasons.append(f"n_workers={ctx.nproc} tree differs from the sequential tree")
        if reasons:
            return reasons
        q = quality(assign, ctx.labels)
        self.quality[op] = q
        if op in QUALITY_GATED and (q["label_recovery"] < 1.0 or q["f_measure"] < MIN_F):
            reasons.append(
                f"label recovery {q['label_recovery']:.3f}, F {q['f_measure']:.4f}"
            )
        return reasons + self._compare(op, partition_digest(assign))

    def _compare(self, op: str, digest: str) -> list[str]:
        self.digests[op] = digest
        reasons = []
        if self.first_digest.setdefault(op, digest) != digest:
            reasons.append("result differs between repeats")
        if self.expected is not None and self.expected.get(op, digest) != digest:
            reasons.append(f"digest {digest} differs from the stored {self.expected[op]}")
        return reasons


def run_repetition(
    ctx: Context, checker: Checker, times: dict, around=None, ops=OPS
) -> None:
    """Run each operation once, timing only the library call."""
    around = around or (lambda name: contextlib.nullcontext())
    for op in ops:
        result, error = None, None
        with around(op):
            start = time.perf_counter()
            try:
                result = OPERATIONS[op](ctx)
            except Exception as err:  # a failing operation is counted, not fatal
                error = err
            times.setdefault(op, []).append(time.perf_counter() - start)
        with around("check"):
            checker.record(op, result, error)


# -- layers -----------------------------------------------------------------

def _tree_counts(args, kwargs, outcome) -> dict:
    spectral = [node for node in outcome.nodes if node.estimated_k is not None]
    return {
        "nodes": len(outcome.nodes),
        "spectral_nodes": len(spectral),
        "splits": sum(1 for node in spectral if node.children),
        "max_depth": max(node.depth for node in outcome.nodes),
    }


def _distance_work(args, kwargs, result) -> dict:
    n, m = np.shape(args[0])
    return {"work": n * n * m}


def _eigen_work(args, kwargs, result) -> dict:
    return {"work": np.shape(args[0])[0] ** 3}


def _kmeans_counts(args, kwargs, result) -> dict:
    k = args[1] if len(args) > 1 else kwargs["k"]
    return {"k": int(k), "iterations": result.iterations, "converged": int(result.converged)}


def _file_bytes(args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(args[0])}


def _report_bytes(args, kwargs, result) -> dict:
    argv = list(args[0])
    return {"bytes": os.path.getsize(argv[argv.index("--output") + 1])}


LAYERS = (
    Layer("ies", "iescluster.ies", "ies_cluster", _tree_counts),
    Layer("ies", "iescluster.ies", "els_cluster", _tree_counts),
    Layer("ies", "iescluster.ies", "legacy_eigengap_cluster", _tree_counts),
    Layer("ies", "iescluster.ies", "njw_outcome", _tree_counts),
    Layer("scaling.estimate_global_sigma", "iescluster.scaling", "estimate_global_sigma"),
    Layer("scaling.estimate_local_sigmas", "iescluster.scaling", "estimate_local_sigmas"),
    Layer("linalg.pairwise_distances", "iescluster.linalg", "pairwise_distances", _distance_work),
    Layer("linalg.symmetric_eigen", "iescluster.linalg", "symmetric_eigen", _eigen_work),
    Layer("affinity.affinity_global", "iescluster.affinity", "affinity_global"),
    Layer("affinity.affinity_local", "iescluster.affinity", "affinity_local"),
    Layer("affinity.normalized_laplacian", "iescluster.affinity", "normalized_laplacian"),
    Layer("eigengap.eigengap_k", "iescluster.eigengap", "eigengap_k"),
    Layer("njw.row_normalize", "iescluster.njw", "row_normalize"),
    Layer("kmeans.kmeans", "iescluster.kmeans", "kmeans", _kmeans_counts),
    Layer("validation.elbow_sweep", "iescluster.validation", "elbow_sweep"),
    # The three steps of evaluate(); `cluster run` calls them directly.
    Layer("validation.evaluate", "iescluster.validation", "association_matrix"),
    Layer("validation.evaluate", "iescluster.validation", "confusion_from_association"),
    Layer("validation.evaluate", "iescluster.validation", "metrics"),
    Layer("dataset.load_dataset", "iescluster.dataset", "load_dataset", _file_bytes),
    Layer("cli", "iescluster.cli", "main", _report_bytes),
)

# Per-layer metric -> (layer, field of tracer.summarize, unit). A field
# "counts.x" reads a work count; ratios are derived in layer_metrics.
LAYER_FIELDS = {
    "ies.self_s": ("ies", "self_s", "s"),
    "ies.nodes": ("ies", "counts.nodes", "count"),
    "ies.spectral_nodes": ("ies", "counts.spectral_nodes", "count"),
    "ies.max_depth": ("ies", "counts.max_depth", "count"),
    "scaling.estimate_global_sigma.self_s": ("scaling.estimate_global_sigma", "self_s", "s"),
    "scaling.estimate_global_sigma.calls": ("scaling.estimate_global_sigma", "calls", "count"),
    "scaling.estimate_local_sigmas.self_s": ("scaling.estimate_local_sigmas", "self_s", "s"),
    "linalg.pairwise_distances.s": ("linalg.pairwise_distances", "s", "s"),
    "linalg.pairwise_distances.calls": ("linalg.pairwise_distances", "calls", "count"),
    "linalg.pairwise_distances.work_computed": ("linalg.pairwise_distances", "counts.work", "n2m"),
    "linalg.symmetric_eigen.s": ("linalg.symmetric_eigen", "s", "s"),
    "linalg.symmetric_eigen.calls": ("linalg.symmetric_eigen", "calls", "count"),
    "linalg.symmetric_eigen.work_computed": ("linalg.symmetric_eigen", "counts.work", "n3"),
    "linalg.symmetric_eigen.peak_alloc_mb": ("linalg.symmetric_eigen", "peak_alloc_mb", "MB"),
    "affinity.affinity_global.self_s": ("affinity.affinity_global", "self_s", "s"),
    "affinity.affinity_local.self_s": ("affinity.affinity_local", "self_s", "s"),
    "affinity.affinity_global.peak_alloc_mb": ("affinity.affinity_global", "peak_alloc_mb", "MB"),
    "affinity.affinity_local.peak_alloc_mb": ("affinity.affinity_local", "peak_alloc_mb", "MB"),
    "affinity.normalized_laplacian.s": ("affinity.normalized_laplacian", "s", "s"),
    "eigengap.eigengap_k.s": ("eigengap.eigengap_k", "s", "s"),
    "njw.row_normalize.s": ("njw.row_normalize", "s", "s"),
    "kmeans.kmeans.s": ("kmeans.kmeans", "s", "s"),
    "kmeans.kmeans.calls": ("kmeans.kmeans", "calls", "count"),
    "kmeans.kmeans.k_sum": ("kmeans.kmeans", "counts.k", "count"),
    "kmeans.kmeans.iterations": ("kmeans.kmeans", "counts.iterations", "count"),
    "validation.elbow_sweep.self_s": ("validation.elbow_sweep", "self_s", "s"),
    "validation.evaluate.s": ("validation.evaluate", "s", "s"),
    "dataset.load_dataset.s": ("dataset.load_dataset", "s", "s"),
    "dataset.load_dataset.bytes": ("dataset.load_dataset", "counts.bytes", "bytes"),
    "cli.self_s": ("cli", "self_s", "s"),
    "cli.report_bytes": ("cli", "counts.bytes", "bytes"),
}


def _field(summary: dict, layer: str, name: str) -> float:
    entry = summary.get(layer)
    if entry is None:
        return 0.0
    if name.startswith("counts."):
        return entry["counts"].get(name[len("counts."):], 0)
    return entry[name]


def layer_metrics(summary: dict, overhead_s: float, quality_by_op: dict) -> dict:
    """Every per-layer metric, as {name: {"value", "unit"}}."""
    out = {
        name: {"value": _field(summary, layer, key), "unit": unit}
        for name, (layer, key, unit) in LAYER_FIELDS.items()
    }
    spectral = _field(summary, "ies", "counts.spectral_nodes")
    kmeans_calls = _field(summary, "kmeans.kmeans", "calls")
    out["ies.split_share"] = {
        "value": _field(summary, "ies", "counts.splits") / spectral if spectral else 0.0,
        "unit": "ratio",
    }
    out["kmeans.kmeans.converged_share"] = {
        "value": (_field(summary, "kmeans.kmeans", "counts.converged") / kmeans_calls
                  if kmeans_calls else 0.0),
        "unit": "ratio",
    }
    out["trace.overhead_s"] = {"value": overhead_s, "unit": "s"}
    for op in ("ies_global", "ies_local"):
        out[f"quality.{op}_overseg"] = {
            "value": quality_by_op.get(op, {}).get("overseg", 0.0), "unit": "ratio",
        }
    return out
