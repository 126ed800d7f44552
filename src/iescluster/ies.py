"""Iterative eigengap search: a divisive tree over the dataset.

Every node re-estimates its scaling parameter from its own member points,
estimates a cluster count from the eigengap of its normalized Laplacian, and
either stops (count one) or splits via spectral clustering and recurses on
the children. Leaves are the final clusters. Nodes are created depth-first,
children in position order, and each takes its final id as it is created.

Single-round variants live here too: ELS (one pass with local scaling),
the legacy eigengap baseline (one pass with global scaling), and a plain
NJW run with a caller-supplied cluster count.
"""

from __future__ import annotations

import itertools
import time
from collections.abc import Callable
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
from .linalg import Spectrum, as_matrix, gram_distances
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
    """Knobs for the tree search: scale estimation, the eigengap search
    limit, the size and depth gates, and the distance exponent. k-means
    runs with its fixed iteration cap, tolerance and restarts."""

    variance_threshold: float = 0.95
    knn_k: int = 7
    search_fraction: float = 0.5
    min_node_size: int = 5
    depth_cap: int = 32
    distance_exponent: int = 2

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

    ``children`` holds (members, reason) pairs. The reason is None for
    children that still need processing and a leaf reason for children that
    are already final (ejected isolated points).
    """

    sigma: ScalingEstimate | None = None
    estimated_k: int | None = None
    leaf_reason: str | None = None
    children: list[tuple[np.ndarray, str | None]] = field(default_factory=list)


def _split_spectrum(
    eig: Spectrum,
    sigma: ScalingEstimate,
    config: IesConfig,
    seed: int,
    k_override: int | None = None,
) -> _NodeStep:
    """Eigengap through k-means for one node's spectrum.

    Member arrays inside the returned step index into the node's points;
    the caller translates them back to root indices.
    """
    if k_override is None:
        k = eigengap_k(eig.values, config.search_fraction).k
    else:
        k = k_override
    if k == 1:
        reason = LEAF_EIGENGAP_ONE if k_override is None else LEAF_SINGLE_PASS
        return _NodeStep(sigma=sigma, estimated_k=1, leaf_reason=reason)
    try:
        embedding = row_normalize(eig.top(k))
    except DegenerateEmbeddingError:
        return _NodeStep(sigma=sigma, estimated_k=k, leaf_reason=LEAF_DEGENERATE)
    km = kmeans(embedding, k, seed)
    if km.n_clusters <= 1:
        return _NodeStep(sigma=sigma, estimated_k=k, leaf_reason=LEAF_SPLIT_COLLAPSE)
    children = [(np.nonzero(km.assignments == c)[0], None) for c in range(km.n_clusters)]
    return _NodeStep(sigma=sigma, estimated_k=k, children=children)


def _node_step(
    data: np.ndarray,
    members: np.ndarray,
    mode: str,
    config: IesConfig,
    seed: int,
    k_override: int | None = None,
    sigma: ScalingEstimate | None = None,
) -> _NodeStep:
    """Scale, spectrum, eigengap and split for one set of member points.

    The node computes one distance matrix, ``gram_distances``: a local
    scale is read from it and certified against the points, and
    ``node_spectrum`` turns it into the Laplacian in place. ``sigma``, when
    given, replaces the node's own scale estimate. Child member arrays of
    the returned step are root indices.
    """
    sub = data[members]
    if np.all(sub == sub[0]):
        return _NodeStep(leaf_reason=LEAF_DEGENERATE)
    distances = gram_distances(sub)
    if sigma is None:
        try:
            if mode == "global":
                sigma = estimate_global_sigma(sub, config.variance_threshold)
            else:
                sigma = estimate_local_sigmas(sub, distances, config.knn_k)
        except DegenerateDataError:
            return _NodeStep(leaf_reason=LEAF_DEGENERATE)
    try:
        # The spectrum is the call's argument, so dsytrd's reflector copy is
        # freed before the node's buffer: the other order costs an n x n of RSS.
        step = _split_spectrum(
            node_spectrum(distances, sigma, config.distance_exponent),
            sigma, config, seed, k_override,
        )
    except IsolatedPointsError as err:
        iso = np.asarray(err.indices, dtype=int)
        rest = np.setdiff1d(np.arange(sub.shape[0]), iso)
        children = [(np.array([i]), LEAF_ISOLATED) for i in iso]
        if rest.size:
            children.append((rest, None))
        step = _NodeStep(sigma=sigma, children=children)
    step.children = [(members[idx], reason) for idx, reason in step.children]
    return step


def _process_node(
    data: np.ndarray,
    members: np.ndarray,
    depth: int,
    mode: str,
    config: IesConfig,
    seed: int,
) -> _NodeStep:
    """One tree node: the size and depth gates, then the node step."""
    if members.shape[0] < config.min_node_size:
        return _NodeStep(leaf_reason=LEAF_MIN_SIZE)
    if depth >= config.depth_cap:
        return _NodeStep(leaf_reason=LEAF_DEPTH_CAP)
    return _node_step(data, members, mode, config, seed)


def _build_tree(
    n: int, process: Callable[[tuple, np.ndarray, int], _NodeStep]
) -> tuple[list[ClusterTreeNode], np.ndarray]:
    """Grow the tree depth-first from a root over all n points; return its
    nodes and every point's leaf id.

    ``process(path, members, depth)`` decides each node that is not already
    final. Each node takes the next id as it is created, and children are
    pushed in reverse so they pop in position order: the ids are the
    depth-first numbering over child positions, with no renumbering pass.
    """
    nodes: list[ClusterTreeNode] = []
    assignments = np.full(n, -1, dtype=int)
    stack = [((), np.arange(n), 0, None, None)]
    while stack:
        path, members, depth, parent_id, final_reason = stack.pop()
        node = ClusterTreeNode(
            id=len(nodes), member_indices=members, depth=depth, leaf_reason=final_reason
        )
        nodes.append(node)
        if parent_id is not None:
            nodes[parent_id].children.append(node.id)
        children = []
        if final_reason is None:
            step = process(path, members, depth)
            node.sigma, node.estimated_k = step.sigma, step.estimated_k
            node.leaf_reason, children = step.leaf_reason, step.children
        if not children:
            assignments[members] = node.id
        for pos in reversed(range(len(children))):
            child, reason = children[pos]
            stack.append((path + (pos,), child, depth + 1, node.id, reason))
    return nodes, assignments


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
    """Depth-first divisive search; leaves are the final clusters.

    ``mode`` selects per-node scaling: "global" (PCA-based) or "local"
    (k-nearest-neighbor). ``n_workers`` is accepted and ignored: every node
    runs on the calling thread. It stays because the benchmark's threaded
    operation still passes it. A thread pool over the nodes of a level won
    on no benchmark workload, because the eigensolve and every node's Gram
    distance product already keep every core busy in BLAS, and it was
    the slowest path on 200-feature data. Each node's seed derives from its
    path, so no result depends on the traversal order, and nodes are created
    depth-first in their final numbering.
    """
    if mode not in ("global", "local"):
        raise InvalidParameterError(f"mode must be 'global' or 'local', got {mode!r}")
    config = config or IesConfig()
    x = _validated_data(data)
    n = x.shape[0]

    start = time.perf_counter()
    nodes, assignments = _build_tree(
        n,
        lambda path, members, depth: _process_node(
            x, members, depth, mode, config, node_seed(master_seed, path)
        ),
    )
    runtime_ms = (time.perf_counter() - start) * 1000.0
    label = "ies-global" if mode == "global" else "ies-local"
    return ClusteringOutcome(nodes, assignments, label, runtime_ms, master_seed)


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
    the remainder, with the seed of path ``(round_index,)``, still attaching
    every final cluster directly to the root (the tree stays depth one).
    """
    x = _validated_data(data)
    n = x.shape[0]
    if n < 2:
        raise InsufficientDataError(f"single-round modes need at least 2 points, got {n}")

    start = time.perf_counter()
    root = _NodeStep()
    members = np.arange(n)
    for round_index in itertools.count():
        step = _node_step(
            x, members, scaling_mode, config, node_seed(master_seed, (round_index,)),
            k_override, sigma,
        )
        if root.sigma is None:
            root.sigma = step.sigma
        if root.estimated_k is None:
            root.estimated_k = step.estimated_k
        if step.leaf_reason is not None:
            if round_index == 0:
                # Nothing split off: the root itself is the single cluster.
                root.leaf_reason = step.leaf_reason
            else:
                root.children.append((members, step.leaf_reason))
            break
        # After a regular split every part is a final cluster of the one-pass
        # tree; after an ejection the isolated singletons are, and the round
        # reruns on the rest.
        ejecting = any(reason == LEAF_ISOLATED for _, reason in step.children)
        members = None
        for child, reason in step.children:
            if ejecting and reason is None:
                members = child
            else:
                root.children.append((child, reason or LEAF_SINGLE_PASS))
        if members is None:
            break

    nodes, assignments = _build_tree(n, lambda *_: root)
    runtime_ms = (time.perf_counter() - start) * 1000.0
    return ClusteringOutcome(nodes, assignments, mode_label, runtime_ms, master_seed)


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
