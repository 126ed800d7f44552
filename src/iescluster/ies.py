"""Iterative eigengap search: a divisive tree over the dataset.

Every node re-estimates its scaling parameter from its own member points,
estimates a cluster count from the eigengap of its normalized Laplacian, and
either stops (count one) or splits via spectral clustering and recurses on
the children. Leaves are the final clusters.

Single-round variants live here too: ELS (one pass with local scaling),
the legacy eigengap baseline (one pass with global scaling), and a plain
NJW run with a caller-supplied cluster count.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from .eigengap import eigengap_k
from .errors import (
    DegenerateDataError,
    DegenerateEmbeddingError,
    InsufficientDataError,
    InvalidDataError,
    InvalidParameterError,
    IsolatedPointsError,
)
from .kmeans import kmeans
from .linalg import as_matrix
from .njw import node_spectrum, row_normalize
from .scaling import ScalingEstimate, estimate_global_sigma, estimate_local_sigmas

LEAF_EIGENGAP_ONE = "eigengap-one"
LEAF_MIN_SIZE = "min-size"
LEAF_DEGENERATE = "degenerate"
LEAF_ISOLATED = "isolated"
LEAF_DEPTH_CAP = "depth-cap"
LEAF_SPLIT_COLLAPSE = "split-collapse"
LEAF_SINGLE_PASS = "single-pass"  # accepted as final by a one-round mode


@dataclass(frozen=True)
class IesConfig:
    """Knobs for the tree search and its building blocks."""

    variance_threshold: float = 0.95
    knn_k: int = 7
    search_fraction: float = 0.5
    min_node_size: int = 5
    depth_cap: int = 32
    distance_exponent: int = 2
    kmeans_max_iter: int = 300
    kmeans_tol: float = 1e-8

    def __post_init__(self):
        if not 0.0 < self.variance_threshold <= 1.0:
            raise InvalidParameterError("variance_threshold must be in (0, 1]")
        if self.knn_k < 1:
            raise InvalidParameterError("knn_k must be at least 1")
        if not 0.0 < self.search_fraction <= 1.0:
            raise InvalidParameterError("search_fraction must be in (0, 1]")
        if self.min_node_size < 1:
            raise InvalidParameterError("min_node_size must be at least 1")
        if self.depth_cap < 1:
            raise InvalidParameterError("depth_cap must be at least 1")
        if self.distance_exponent not in (1, 2):
            raise InvalidParameterError("distance_exponent must be 1 or 2")


@dataclass
class ClusterTreeNode:
    """One node of the search tree; leaves are final clusters."""

    id: int
    member_indices: np.ndarray
    depth: int
    sigma: ScalingEstimate | None = None
    estimated_k: int | None = None
    children: list[int] = field(default_factory=list)
    leaf_reason: str | None = None

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def size(self) -> int:
        return int(self.member_indices.shape[0])


@dataclass
class ClusteringOutcome:
    """Search tree plus the per-point leaf assignment it induces."""

    nodes: list[ClusterTreeNode]
    leaf_assignments: np.ndarray
    mode: str
    runtime_ms: float
    master_seed: int

    @property
    def root(self) -> ClusterTreeNode:
        return self.nodes[0]

    def leaves(self) -> list[ClusterTreeNode]:
        return [n for n in self.nodes if n.is_leaf]

    @property
    def n_clusters(self) -> int:
        return len(self.leaves())


def node_seed(master_seed: int, path: tuple) -> int:
    """Deterministic per-node seed from the master seed and the child-index
    path to the node, so traversal order cannot change any result."""
    entropy = int(master_seed) & ((1 << 64) - 1)
    ss = np.random.SeedSequence(entropy=entropy, spawn_key=tuple(path))
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass
class _NodeStep:
    """What processing one node decided: a leaf reason or an ordered split.

    ``child_final_reasons[i]`` is None for children that still need
    processing and a leaf reason for children that are already final
    (ejected isolated points).
    """

    sigma: ScalingEstimate | None = None
    estimated_k: int | None = None
    leaf_reason: str | None = None
    child_members: list[np.ndarray] = field(default_factory=list)
    child_final_reasons: list[str | None] = field(default_factory=list)


def _estimate_node_sigma(sub: np.ndarray, mode: str, config: IesConfig) -> ScalingEstimate:
    if mode == "global":
        return estimate_global_sigma(sub, config.variance_threshold)
    return estimate_local_sigmas(sub, config.knn_k)


def _split_spectrum(
    sub: np.ndarray,
    sigma: ScalingEstimate,
    config: IesConfig,
    seed: int,
    k_override: int | None = None,
) -> _NodeStep:
    """Affinity through k-means for one node whose scale is already known.

    Member arrays inside the returned step index into ``sub``; the caller
    translates them back to root indices.
    """
    n = sub.shape[0]
    try:
        eig = node_spectrum(sub, sigma, config.distance_exponent)
    except IsolatedPointsError as err:
        iso = np.asarray(err.indices, dtype=int)
        rest = np.setdiff1d(np.arange(n), iso)
        child_members = [np.array([i]) for i in iso]
        child_reasons: list[str | None] = [LEAF_ISOLATED] * len(iso)
        if rest.size:
            child_members.append(rest)
            child_reasons.append(None)
        return _NodeStep(
            sigma=sigma,
            child_members=child_members,
            child_final_reasons=child_reasons,
        )

    if k_override is None:
        k = eigengap_k(eig.values, config.search_fraction).k
    else:
        k = k_override
    if k == 1:
        reason = LEAF_EIGENGAP_ONE if k_override is None else LEAF_SINGLE_PASS
        return _NodeStep(sigma=sigma, estimated_k=1, leaf_reason=reason)
    try:
        embedding = row_normalize(eig.vectors[:, :k])
    except DegenerateEmbeddingError:
        return _NodeStep(sigma=sigma, estimated_k=k, leaf_reason=LEAF_DEGENERATE)
    km = kmeans(
        embedding, k, seed, max_iter=config.kmeans_max_iter, tol=config.kmeans_tol
    )
    if km.n_clusters <= 1:
        return _NodeStep(sigma=sigma, estimated_k=k, leaf_reason=LEAF_SPLIT_COLLAPSE)
    child_members = [np.nonzero(km.assignments == c)[0] for c in range(km.n_clusters)]
    return _NodeStep(
        sigma=sigma,
        estimated_k=k,
        child_members=child_members,
        child_final_reasons=[None] * km.n_clusters,
    )


def _process_node(
    data: np.ndarray,
    members: np.ndarray,
    depth: int,
    mode: str,
    config: IesConfig,
    seed: int,
) -> _NodeStep:
    """One round of the search on a tree node: scale, spectrum, eigengap, split."""
    n = members.shape[0]
    if n < config.min_node_size:
        return _NodeStep(leaf_reason=LEAF_MIN_SIZE)
    if depth >= config.depth_cap:
        return _NodeStep(leaf_reason=LEAF_DEPTH_CAP)
    sub = data[members]
    if np.all(sub == sub[0]):
        return _NodeStep(leaf_reason=LEAF_DEGENERATE)
    try:
        sigma = _estimate_node_sigma(sub, mode, config)
    except DegenerateDataError:
        return _NodeStep(leaf_reason=LEAF_DEGENERATE)
    step = _split_spectrum(sub, sigma, config, seed)
    step.child_members = [members[idx] for idx in step.child_members]
    return step


@dataclass
class _PathNode:
    members: np.ndarray
    depth: int
    sigma: ScalingEstimate | None = None
    estimated_k: int | None = None
    leaf_reason: str | None = None
    child_paths: list[tuple] = field(default_factory=list)


def _record_step(
    records: dict, path: tuple, members: np.ndarray, depth: int, step: _NodeStep
) -> list[tuple[tuple, np.ndarray, int]]:
    """Store a processed node and its already-final children; return the
    (path, members, depth) work items for children that need processing."""
    node = _PathNode(
        members=members,
        depth=depth,
        sigma=step.sigma,
        estimated_k=step.estimated_k,
        leaf_reason=step.leaf_reason,
    )
    records[path] = node
    to_process = []
    for pos, (child, reason) in enumerate(
        zip(step.child_members, step.child_final_reasons)
    ):
        child_path = path + (pos,)
        node.child_paths.append(child_path)
        if reason is not None:
            records[child_path] = _PathNode(
                members=child, depth=depth + 1, leaf_reason=reason
            )
        else:
            to_process.append((child_path, child, depth + 1))
    return to_process


def _assemble(
    records: dict, n: int, mode: str, runtime_ms: float, master_seed: int
) -> ClusteringOutcome:
    """Number nodes canonically (depth-first over child positions) and map
    every point to its leaf id."""
    order: list[tuple] = []
    stack = [()]
    while stack:
        path = stack.pop()
        order.append(path)
        stack.extend(reversed(records[path].child_paths))
    ids = {path: i for i, path in enumerate(order)}
    nodes = []
    for path in order:
        rec = records[path]
        nodes.append(
            ClusterTreeNode(
                id=ids[path],
                member_indices=rec.members,
                depth=rec.depth,
                sigma=rec.sigma,
                estimated_k=rec.estimated_k,
                children=[ids[p] for p in rec.child_paths],
                leaf_reason=rec.leaf_reason,
            )
        )
    assignments = np.full(n, -1, dtype=int)
    for node in nodes:
        if node.is_leaf:
            assignments[node.member_indices] = node.id
    return ClusteringOutcome(
        nodes=nodes,
        leaf_assignments=assignments,
        mode=mode,
        runtime_ms=runtime_ms,
        master_seed=master_seed,
    )


def _validated_data(data) -> np.ndarray:
    x = np.asarray(data, dtype=float)
    if x.size == 0:
        raise InvalidDataError("empty dataset")
    return as_matrix(x)


def ies_cluster(
    data,
    mode: str,
    config: IesConfig | None = None,
    master_seed: int = 0,
    n_workers: int = 1,
) -> ClusteringOutcome:
    """Level-by-level divisive search; leaves are the final clusters.

    ``mode`` selects per-node scaling: "global" (PCA-based) or "local"
    (k-nearest-neighbor). With ``n_workers`` > 1, the nodes of a level are
    processed concurrently; results are identical to the sequential run
    because every node's seed derives from its path and nodes are numbered
    canonically afterwards, so traversal order cannot change the output.
    """
    if mode not in ("global", "local"):
        raise InvalidParameterError(f"mode must be 'global' or 'local', got {mode!r}")
    config = config or IesConfig()
    x = _validated_data(data)
    n = x.shape[0]

    def process(item: tuple[tuple, np.ndarray, int]) -> _NodeStep:
        path, members, depth = item
        return _process_node(
            x, members, depth, mode, config, node_seed(master_seed, path)
        )

    start = time.perf_counter()
    records: dict[tuple, _PathNode] = {}
    level = [((), np.arange(n), 0)]
    # One worker maps on the calling thread: a one-thread pool would give the
    # worker its own malloc arena and raise peak RSS for nothing.
    with ThreadPoolExecutor(n_workers) if n_workers > 1 else nullcontext() as pool:
        map_level = map if pool is None else pool.map
        while level:
            level = [
                child
                for item, step in zip(level, map_level(process, level))
                for child in _record_step(records, *item, step)
            ]

    runtime_ms = (time.perf_counter() - start) * 1000.0
    label = "ies-global" if mode == "global" else "ies-local"
    return _assemble(records, n, label, runtime_ms, master_seed)


def _single_round(
    data,
    scaling_mode: str,
    config: IesConfig,
    master_seed: int,
    mode_label: str,
    k_override: int | None = None,
    sigma: ScalingEstimate | None = None,
) -> ClusteringOutcome:
    """One pass of scale -> spectrum -> split; children are final clusters.

    Isolated points are ejected as singleton leaves and the round repeats on
    the remainder, still attaching every final cluster directly to the root
    (the tree stays depth one).
    """
    x = _validated_data(data)
    n = x.shape[0]
    if n < 2:
        raise InsufficientDataError(f"single-round modes need at least 2 points, got {n}")

    start = time.perf_counter()
    records: dict[tuple, _PathNode] = {}
    root = _PathNode(members=np.arange(n), depth=0)
    records[()] = root

    def attach_final(pos: int, child: np.ndarray, reason: str) -> None:
        path = (pos,)
        records[path] = _PathNode(members=child, depth=1, leaf_reason=reason)
        root.child_paths.append(path)

    members = np.arange(n)
    pos = 0
    round_index = 0
    while True:
        sub = x[members]
        if np.all(sub == sub[0]):
            step = _NodeStep(leaf_reason=LEAF_DEGENERATE)
        else:
            try:
                round_sigma = sigma if sigma is not None else _estimate_node_sigma(
                    sub, scaling_mode, config
                )
                step = _split_spectrum(
                    sub,
                    round_sigma,
                    config,
                    node_seed(master_seed, (round_index,)),
                    k_override=k_override,
                )
                step.child_members = [members[idx] for idx in step.child_members]
            except DegenerateDataError:
                step = _NodeStep(leaf_reason=LEAF_DEGENERATE)
        if root.sigma is None:
            root.sigma = step.sigma
        if root.estimated_k is None:
            root.estimated_k = step.estimated_k

        if step.leaf_reason is not None:
            if pos == 0:
                # Nothing split off yet: the root itself is the single cluster.
                root.leaf_reason = step.leaf_reason
            else:
                attach_final(pos, members, step.leaf_reason)
            break

        if any(r == LEAF_ISOLATED for r in step.child_final_reasons):
            # Eject the isolated singletons, then rerun the round on the rest.
            rest = None
            for child, reason in zip(step.child_members, step.child_final_reasons):
                if reason is None:
                    rest = child
                else:
                    attach_final(pos, child, reason)
                    pos += 1
            if rest is None:
                break
            members = rest
            round_index += 1
            continue

        # Regular split: every part is a final cluster of the one-pass tree.
        for child in step.child_members:
            attach_final(pos, child, LEAF_SINGLE_PASS)
            pos += 1
        break

    runtime_ms = (time.perf_counter() - start) * 1000.0
    return _assemble(records, n, mode_label, runtime_ms, master_seed)


def els_cluster(
    data, config: IesConfig | None = None, master_seed: int = 0
) -> ClusteringOutcome:
    """Eigengap with local scaling: a single round whose clusters are final."""
    return _single_round(data, "local", config or IesConfig(), master_seed, "els")


def legacy_eigengap_cluster(
    data,
    config: IesConfig | None = None,
    master_seed: int = 0,
    sigma: ScalingEstimate | None = None,
) -> ClusteringOutcome:
    """One global-scale eigengap round; the comparison baseline without search."""
    return _single_round(
        data, "global", config or IesConfig(), master_seed, "legacy-eigengap",
        sigma=sigma,
    )


def njw_outcome(
    data,
    k: int,
    config: IesConfig | None = None,
    master_seed: int = 0,
    sigma: ScalingEstimate | None = None,
) -> ClusteringOutcome:
    """Plain spectral clustering with a caller-chosen k, as a depth-one tree.

    ``sigma`` defaults to the PCA-based global estimate on the full data.
    """
    config = config or IesConfig()
    if k < 1:
        raise InvalidParameterError(f"k must be at least 1, got {k}")
    return _single_round(
        data, "global", config, master_seed, "njw", k_override=k, sigma=sigma
    )
