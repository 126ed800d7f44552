"""Command-line entry point: dataset ingestion, method dispatch, JSON/CSV
report emission.

Subcommands:
  cluster run    one clustering mode -> JSON report
  cluster elbow  SSE sweep over a k range -> CSV (k,sse)
  cluster synth  synthetic dataset from a JSON layout -> CSV
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import asdict, dataclass, fields

import numpy as np

from .dataset import Dataset, load_dataset, save_dataset
from .errors import (
    EXIT_DATA,
    EXIT_NUMERIC,
    ClusteringError,
    InvalidParameterError,
    exit_code_for,
)
from .ies import (
    ClusteringOutcome,
    IesConfig,
    els_cluster,
    ies_cluster,
    legacy_eigengap_cluster,
    njw_outcome,
)
from .scaling import estimate_global_sigma, manual_global_sigma
from .synth import generate_synthetic, spec_from_json
from .validation import association_matrix, confusion_from_association, elbow_sweep, metrics

SCHEMA_VERSION = 2

CLUSTER_MODES = ("ies-global", "ies-local", "els", "njw", "legacy-eigengap")
MODES = CLUSTER_MODES + ("elbow",)

# Modes where a single user-supplied sigma^2 makes sense; the iterated and
# local-scale modes re-estimate per node and reject an override.
_SIGMA_OVERRIDE_MODES = ("njw", "legacy-eigengap", "elbow")

# The report's "params" block.
_PARAMS = (
    "sigma_override", "k_override", *(f.name for f in fields(IesConfig)),
    "master_seed",
)


@dataclass(frozen=True, kw_only=True)
class RunConfig(IesConfig):
    """Everything one invocation needs besides the dataset itself: the
    IesConfig knobs, with their defaults and range checks, plus the run's
    own fields."""

    mode: str
    sigma_override: float | None = None
    k_override: int | None = None
    master_seed: int = 0
    elbow_space: str = "embedding"
    elbow_k_min: int | None = None
    elbow_k_max: int | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise InvalidParameterError(f"unknown mode {self.mode!r}; choose from {MODES}")
        if self.mode == "njw" and self.k_override is None:
            raise InvalidParameterError("mode njw requires --k")
        if self.mode != "njw" and self.k_override is not None:
            raise InvalidParameterError("--k only applies to mode njw")
        if self.mode == "elbow" and (self.elbow_k_min is None or self.elbow_k_max is None):
            raise InvalidParameterError("mode elbow requires --k-min and --k-max")
        if self.sigma_override is not None:
            if not 0 < self.sigma_override < math.inf:
                raise InvalidParameterError("--sigma must be finite and positive")
            if self.mode not in _SIGMA_OVERRIDE_MODES:
                raise InvalidParameterError(
                    f"--sigma only applies to modes {_SIGMA_OVERRIDE_MODES}"
                )
        if self.elbow_space not in ("embedding", "raw"):
            raise InvalidParameterError("elbow_space must be 'embedding' or 'raw'")
        if self.mode == "elbow":
            if not 1 <= self.elbow_k_min <= self.elbow_k_max:
                raise InvalidParameterError(
                    f"--k-min {self.elbow_k_min} and --k-max {self.elbow_k_max} "
                    "must satisfy 1 <= k-min <= k-max"
                )
        elif (self.elbow_k_min, self.elbow_k_max, self.elbow_space) != (None, None, "embedding"):
            raise InvalidParameterError(
                "--k-min, --k-max and --elbow-space only apply to mode elbow"
            )
        if not 0 <= self.master_seed < 2**64:
            raise InvalidParameterError(f"--seed {self.master_seed} must lie in [0, 2**64)")
        super().__post_init__()


def _sigma_trace(outcome: ClusteringOutcome) -> list[dict]:
    trace = []
    for node in outcome.nodes:
        s = node.sigma
        if s is None:
            continue
        entry: dict = {"node": node.id, "kind": s.kind}
        if s.kind == "global":
            entry["sigma_sq"] = s.sigma_sq
            if s.components_used is not None:
                entry["components_used"] = s.components_used
            if s.variance_captured is not None:
                entry["variance_captured"] = s.variance_captured
        else:
            sig = np.asarray(s.local_sigmas)
            entry["sigma_min"] = float(sig.min())
            entry["sigma_max"] = float(sig.max())
            entry["sigma_mean"] = float(sig.mean())
        trace.append(entry)
    return trace


def _tree_json(outcome: ClusteringOutcome) -> list[dict]:
    return [
        {
            "id": node.id,
            "depth": node.depth,
            "size": node.size,
            "estimated_k": node.estimated_k,
            "children": list(node.children),
            "leaf_reason": node.leaf_reason,
        }
        for node in outcome.nodes
    ]


def _metrics_json(assignments, labels, n_clusters: int) -> dict:
    # association_matrix builds its ids with tolist(), so every id is
    # already a Python scalar that json can write (tuples become lists).
    am = association_matrix(assignments, labels)
    cm = confusion_from_association(am)
    return {
        "n_clusters": n_clusters,
        "association": {
            "label_ids": am.label_ids,
            "cluster_ids": am.cluster_ids,
            "counts": am.counts.tolist(),
        },
        "confusion": {
            "label_ids": cm.label_ids,
            "counts": cm.counts.tolist(),
            "cluster_label_map": sorted(cm.cluster_label_map.items()),
        },
        **asdict(metrics(cm, n_clusters)),
    }


def _params_json(config: RunConfig) -> dict:
    return {name: getattr(config, name) for name in _PARAMS}


def run(config: RunConfig, dataset: Dataset):
    """Execute one mode. Cluster modes return a JSON-ready report dict; the
    elbow mode returns the (k, sse) curve rows instead."""
    features = dataset.features
    seed = config.master_seed
    sigma = None if config.sigma_override is None else manual_global_sigma(config.sigma_override)

    if config.mode == "elbow":
        if sigma is None:
            sigma = estimate_global_sigma(features, config.variance_threshold)
        return elbow_sweep(
            features,
            (config.elbow_k_min, config.elbow_k_max),
            sigma,
            seed,
            distance_exponent=config.distance_exponent,
            space=config.elbow_space,
        )

    if config.mode == "ies-global":
        outcome = ies_cluster(features, "global", config, seed)
    elif config.mode == "ies-local":
        outcome = ies_cluster(features, "local", config, seed)
    elif config.mode == "els":
        outcome = els_cluster(features, config, seed)
    elif config.mode == "legacy-eigengap":
        outcome = legacy_eigengap_cluster(features, config, seed, sigma=sigma)
    else:  # njw
        outcome = njw_outcome(features, config.k_override, config, seed, sigma=sigma)

    report = {
        "schema_version": SCHEMA_VERSION,
        "mode": outcome.mode,
        "params": _params_json(config),
        "sigma_trace": _sigma_trace(outcome),
        "tree": _tree_json(outcome),
        "assignments": outcome.leaf_assignments.tolist(),
        "runtime_ms": outcome.runtime_ms,
    }
    if dataset.labels is not None:
        report["metrics"] = _metrics_json(
            outcome.leaf_assignments, dataset.labels, outcome.n_clusters
        )
    return report


def _add_io_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="input CSV path")
    p.add_argument("--label-col", default=None,
                   help="label column: 0-based index or header name")
    p.add_argument("--has-header", action="store_true", default=False,
                   help="treat the first CSV row as a header")
    p.add_argument("--output", required=True, help="output file path")


def build_parser() -> argparse.ArgumentParser:
    """The ``cluster`` parser. Options of ``run`` and ``elbow`` store under
    their RunConfig field names and set no default of their own, so absent
    options fall back to RunConfig's defaults."""
    parser = argparse.ArgumentParser(
        prog="cluster",
        description="Automated spectral clustering via iterative eigengap search",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="cluster a dataset and write a JSON report",
                           argument_default=argparse.SUPPRESS)
    _add_io_args(p_run)
    p_run.add_argument("--mode", required=True, choices=CLUSTER_MODES)
    p_run.add_argument("--sigma", type=float,
                       help="fixed sigma^2 (njw / legacy-eigengap only)")
    p_run.add_argument("--k", type=int, help="cluster count (njw only)")
    p_run.add_argument("--variance-threshold", type=float)
    p_run.add_argument("--knn", type=int, dest="knn_k")
    p_run.add_argument("--search-fraction", type=float)
    p_run.add_argument("--min-node-size", type=int)
    p_run.add_argument("--depth-cap", type=int)
    p_run.add_argument("--distance-exponent", type=int, choices=(1, 2))
    p_run.add_argument("--seed", type=int, dest="master_seed")

    p_elbow = sub.add_parser("elbow", help="write a k,sse elbow curve as CSV",
                             argument_default=argparse.SUPPRESS)
    _add_io_args(p_elbow)
    p_elbow.set_defaults(mode="elbow")
    p_elbow.add_argument("--k-min", type=int, required=True, dest="elbow_k_min")
    p_elbow.add_argument("--k-max", type=int, required=True, dest="elbow_k_max")
    p_elbow.add_argument("--seed", type=int, dest="master_seed")
    p_elbow.add_argument("--sigma", type=float)
    p_elbow.add_argument("--variance-threshold", type=float)
    p_elbow.add_argument("--distance-exponent", type=int, choices=(1, 2))
    p_elbow.add_argument("--elbow-space", choices=("embedding", "raw"))

    p_synth = sub.add_parser("synth", help="generate a labeled synthetic CSV")
    p_synth.add_argument("--spec", required=True, help="JSON layout path")
    p_synth.add_argument("--output", required=True)

    return parser


# Parsed names that differ from their RunConfig field: ``args.sigma`` and
# ``args.k`` are part of the parser's interface.
_RENAMED = {"sigma": "sigma_override", "k": "k_override"}


def config_from_args(args: argparse.Namespace) -> RunConfig:
    """RunConfig from a parsed ``run`` or ``elbow`` namespace."""
    names = {f.name for f in fields(RunConfig)}
    given = {_RENAMED.get(key, key): value for key, value in vars(args).items()}
    return RunConfig(**{key: value for key, value in given.items() if key in names})


def _cmd_run(args) -> int:
    config = config_from_args(args)
    dataset = load_dataset(args.input, label_column=args.label_col, has_header=args.has_header)
    report = run(config, dataset)
    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


def _cmd_elbow(args) -> int:
    config = config_from_args(args)
    dataset = load_dataset(args.input, label_column=args.label_col, has_header=args.has_header)
    curve = run(config, dataset)
    with open(args.output, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "sse"])
        for k, value in curve:
            writer.writerow([k, repr(value)])
    return 0


def _cmd_synth(args) -> int:
    spec = spec_from_json(args.spec)
    dataset = generate_synthetic(spec)
    save_dataset(dataset, args.output)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"run": _cmd_run, "elbow": _cmd_elbow, "synth": _cmd_synth}
    try:
        return handlers[args.command](args)
    except ClusteringError as err:
        print(f"error: {err}", file=sys.stderr)
        return exit_code_for(err)
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError as err:
        detail = f": {err}" if str(err) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
