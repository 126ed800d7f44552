import contextlib
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import needs_library, partition_of, separated_blobs
import iescluster.ies as ies_module
import iescluster.njw as njw_module
import iescluster.validation as validation_module
from iescluster import lapack, linalg
from iescluster.eigengap import eigengap_k
from iescluster.errors import InsufficientDataError, InvalidDataError, InvalidParameterError
from iescluster.ies import (
    IesConfig,
    els_cluster,
    ies_cluster,
    legacy_eigengap_cluster,
    njw_outcome,
    node_seed,
)
from iescluster.njw import njw_cluster
from iescluster.scaling import ScalingEstimate, estimate_global_sigma, manual_global_sigma
from iescluster.synth import nested_scale_dataset
from iescluster.validation import elbow_sweep, evaluate


def assert_valid_tree(outcome, n):
    """Leaf sets partition [0, n); internal nodes have >= 2 strictly smaller
    children whose member sets are disjoint and union to the parent's."""
    seen = np.zeros(n, dtype=int)
    by_id = {node.id: node for node in outcome.nodes}
    for leaf in outcome.leaves():
        seen[leaf.member_indices] += 1
        assert leaf.leaf_reason is not None
        assert np.all(outcome.leaf_assignments[leaf.member_indices] == leaf.id)
    assert np.all(seen == 1)
    for node in outcome.nodes:
        if node.is_leaf:
            continue
        assert node.leaf_reason is None
        assert len(node.children) >= 2
        union = []
        for cid in node.children:
            child = by_id[cid]
            assert child.size < node.size
            union.append(child.member_indices)
        union = np.concatenate(union)
        assert len(np.unique(union)) == len(union)
        assert np.array_equal(np.sort(union), np.sort(node.member_indices))


class TestIesTree:
    def test_two_groups_clean_split(self):
        data, _ = separated_blobs((20, 20), separation=50.0, spread=0.1, seed=1)
        out = ies_cluster(data, "global", master_seed=0)
        assert out.n_clusters == 2
        assert [n.leaf_reason for n in out.leaves()] == ["eigengap-one"] * 2
        assert out.root.estimated_k == 2
        assert_valid_tree(out, 40)

    def test_small_dataset_single_leaf(self, rng):
        data = rng.normal(0, 1, (3, 2))
        out = ies_cluster(data, "global", IesConfig(min_node_size=5), master_seed=0)
        assert len(out.nodes) == 1
        assert out.root.leaf_reason == "min-size"

    def test_empty_dataset_rejected(self):
        with pytest.raises(InvalidDataError):
            ies_cluster(np.empty((0, 3)), "global")

    def test_bad_mode_rejected(self, rng):
        with pytest.raises(InvalidParameterError):
            ies_cluster(rng.normal(0, 1, (10, 2)), "both")

    def test_degenerate_node_is_leaf(self):
        data = np.tile([1.0, 2.0], (8, 1))
        out = ies_cluster(data, "global", master_seed=0)
        assert len(out.nodes) == 1
        assert out.root.leaf_reason == "degenerate"

    def test_depth_cap(self):
        data, _ = separated_blobs((20, 20), separation=50.0, spread=0.1, seed=1)
        out = ies_cluster(data, "global", IesConfig(depth_cap=1), master_seed=0)
        assert all(leaf.leaf_reason == "depth-cap" for leaf in out.leaves())
        assert max(node.depth for node in out.nodes) == 1

    def test_multiscale_recovered_where_one_round_masks(self):
        ds = nested_scale_dataset(n_per_group=60, seed=4)
        legacy = legacy_eigengap_cluster(ds.features, master_seed=0)
        out = ies_cluster(ds.features, "global", master_seed=0)
        assert legacy.n_clusters < 3
        assert out.n_clusters >= 3
        assert evaluate(out.leaf_assignments, ds.labels).f_measure >= 0.95
        assert_valid_tree(out, ds.n)

    def test_isolated_outlier_becomes_singleton_leaf(self, rng):
        data = np.vstack([rng.normal(0, 0.01, (12, 2)), [[500.0, 500.0]]])
        out = ies_cluster(data, "local", master_seed=0)
        isolated = [n for n in out.leaves() if n.leaf_reason == "isolated"]
        assert len(isolated) == 1
        assert isolated[0].member_indices.tolist() == [12]
        assert_valid_tree(out, 13)

    def test_single_scale_matches_one_shot_njw(self):
        data, _ = separated_blobs((15, 15), separation=80.0, spread=0.1, seed=6)
        out = ies_cluster(data, "global", master_seed=0)
        scaling = estimate_global_sigma(data)
        direct = njw_cluster(data, 2, scaling, seed=0)
        assert partition_of(out.leaf_assignments) == partition_of(direct)

    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from(["global", "local"]),
    )
    def test_partition_and_determinism_random_data(self, seed, mode):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 40))
        data = rng.normal(0, rng.uniform(0.5, 20), (n, int(rng.integers(1, 6))))
        out1 = ies_cluster(data, mode, master_seed=seed)
        out2 = ies_cluster(data, mode, master_seed=seed)
        assert_valid_tree(out1, n)
        assert np.array_equal(out1.leaf_assignments, out2.leaf_assignments)
        assert len(out1.nodes) == len(out2.nodes)

    def test_parallel_matches_sequential_bitwise(self):
        ds = nested_scale_dataset(n_per_group=60, seed=5)
        for mode in ("global", "local"):
            seq = ies_cluster(ds.features, mode, master_seed=0, n_workers=1)
            par = ies_cluster(ds.features, mode, master_seed=0, n_workers=4)
            assert np.array_equal(seq.leaf_assignments, par.leaf_assignments)
            assert len(seq.nodes) == len(par.nodes)
            for a, b in zip(seq.nodes, par.nodes):
                assert a.id == b.id and a.children == b.children
                assert np.array_equal(a.member_indices, b.member_indices)
                assert a.leaf_reason == b.leaf_reason

    def test_workers_ignored_every_node_on_calling_thread(self, monkeypatch):
        ds = nested_scale_dataset(n_per_group=60, seed=5)
        threads = []
        original = ies_module._process_node

        def recorded(x, members, *args):
            threads.append(threading.get_ident())
            return original(x, members, *args)

        monkeypatch.setattr(ies_module, "_process_node", recorded)
        for mode in ("global", "local"):
            seq = ies_cluster(ds.features, mode, master_seed=0, n_workers=1)
            threads.clear()
            par = ies_cluster(ds.features, mode, master_seed=0, n_workers=4)
            # Every node but the ejected singletons goes through the node step.
            assert len(threads) == sum(n.leaf_reason != "isolated" for n in par.nodes)
            assert set(threads) == {threading.get_ident()}
            assert np.array_equal(seq.leaf_assignments, par.leaf_assignments)
            assert [(a.id, a.children, a.leaf_reason) for a in seq.nodes] == [
                (b.id, b.children, b.leaf_reason) for b in par.nodes
            ]

    @pytest.mark.parametrize("mode", ["global", "local"])
    def test_nodes_numbered_depth_first_in_child_order(self, mode):
        ds = nested_scale_dataset(n_per_group=60, seed=5)
        out = ies_cluster(ds.features, mode, master_seed=0)
        assert [node.id for node in out.nodes] == list(range(len(out.nodes)))
        visited, stack = [], [0]
        while stack:
            node = out.nodes[stack.pop()]
            visited.append(node.id)
            assert all(child > node.id for child in node.children)
            stack.extend(reversed(node.children))
        assert visited == list(range(len(out.nodes)))
        assert np.all(out.leaf_assignments != -1)

    def test_node_seed_path_dependence(self):
        assert node_seed(0, ()) == node_seed(0, ())
        assert node_seed(0, (0,)) != node_seed(0, (1,))
        assert node_seed(0, (0,)) != node_seed(1, (0,))


class TestSingleRoundModes:
    def test_els_matches_ies_local_on_two_blocks(self):
        data, _ = separated_blobs((12, 14), separation=60.0, spread=0.05, seed=3)
        els = els_cluster(data, master_seed=0)
        ies_local = ies_cluster(data, "local", master_seed=0)
        assert els.mode == "els"
        assert partition_of(els.leaf_assignments) == partition_of(ies_local.leaf_assignments)
        assert max(node.depth for node in els.nodes) <= 1

    def test_els_two_points_single_cluster(self):
        out = els_cluster(np.array([[0.0], [1.0]]), master_seed=0)
        assert out.n_clusters == 1
        assert out.root.leaf_reason == "eigengap-one"
        assert out.root.estimated_k == 1

    def test_els_multiscale_splits_in_one_pass(self):
        ds = nested_scale_dataset(n_per_group=60, seed=4)
        out = els_cluster(ds.features, master_seed=0)
        assert out.n_clusters >= 2
        assert max(node.depth for node in out.nodes) <= 1
        assert_valid_tree(out, ds.n)

    def test_els_requires_two_points(self):
        with pytest.raises(InsufficientDataError):
            els_cluster(np.ones((1, 2)))

    def test_legacy_equal_scale_correct_k(self):
        data, labels = separated_blobs((15, 15, 15), separation=60.0, spread=0.1, seed=8)
        out = legacy_eigengap_cluster(data, master_seed=0)
        assert out.n_clusters == 3
        assert evaluate(out.leaf_assignments, labels).f_measure >= 0.95

    def test_legacy_underestimates_on_multiscale(self):
        ds = nested_scale_dataset(n_per_group=60, seed=2)
        out = legacy_eigengap_cluster(ds.features, master_seed=0)
        assert out.n_clusters < 3

    def test_legacy_two_points(self):
        out = legacy_eigengap_cluster(np.array([[0.0], [5.0]]), master_seed=0)
        assert out.n_clusters == 1
        assert out.root.estimated_k == 1

    def test_legacy_ejects_point_with_subnormal_degree(self, rng):
        # With sigma^2 = 1.5 every affinity of the point at -47 underflows to
        # a subnormal, so 1/degree overflows; the point is ejected as
        # isolated and the round goes on with the two groups.
        data = np.concatenate(
            [rng.uniform(-0.05, 0.05, 20), rng.uniform(9.95, 10.05, 20), [-47.0]]
        )[:, None]
        out = legacy_eigengap_cluster(
            data, master_seed=0, sigma=manual_global_sigma(1.5)
        )
        assert_valid_tree(out, 41)
        isolated = [n for n in out.leaves() if n.leaf_reason == "isolated"]
        assert [n.member_indices.tolist() for n in isolated] == [[40]]
        assert partition_of(out.leaf_assignments) == partition_of(
            np.repeat([0, 1, 2], [20, 20, 1])
        )

    def test_ejection_then_rerun_tree(self, rng, monkeypatch):
        # Round 0 ejects the point at -47 and carries sigma but no k; round 1
        # reruns on the rest with the seed of path (1,) and splits it in two.
        data = np.concatenate(
            [rng.uniform(-0.05, 0.05, 20), rng.uniform(9.95, 10.05, 20), [-47.0]]
        )[:, None]
        seeds = []
        original = ies_module.kmeans

        def recorded(embedding, k, seed, **kwargs):
            seeds.append(seed)
            return original(embedding, k, seed, **kwargs)

        monkeypatch.setattr(ies_module, "kmeans", recorded)
        sigma = manual_global_sigma(1.5)
        out = legacy_eigengap_cluster(data, master_seed=0, sigma=sigma)
        assert seeds == [node_seed(0, (1,))]
        assert out.root.sigma == sigma
        assert out.root.estimated_k == 2
        assert out.root.leaf_reason is None
        children = [out.nodes[i] for i in out.root.children]
        assert [(c.depth, c.leaf_reason) for c in children] == [
            (1, "isolated"), (1, "single-pass"), (1, "single-pass")
        ]
        assert [c.member_indices.tolist() for c in children] == [
            [40], list(range(20)), list(range(20, 40))
        ]
        assert len(out.nodes) == 4
        # With a scale estimated per round, the root keeps round 0's.
        els = els_cluster(data, master_seed=0)
        assert els.nodes[els.root.children[0]].leaf_reason == "isolated"
        assert els.root.sigma.local_sigmas.shape == (41,)

    def test_rerun_ending_in_leaf_attaches_rest(self, rng):
        data = np.concatenate([rng.uniform(-0.05, 0.05, 20), [-47.0]])[:, None]
        sigma = manual_global_sigma(1.5)
        out = legacy_eigengap_cluster(data, master_seed=0, sigma=sigma)
        assert out.root.leaf_reason is None
        assert out.root.sigma == sigma
        assert out.root.estimated_k == 1
        children = [out.nodes[i] for i in out.root.children]
        assert [(c.depth, c.leaf_reason) for c in children] == [
            (1, "isolated"), (1, "eigengap-one")
        ]
        assert [c.member_indices.tolist() for c in children] == [[20], list(range(20))]
        assert len(out.nodes) == 3

    def test_njw_outcome_depth_one_tree(self):
        data, labels = separated_blobs((10, 12), separation=70.0, spread=0.1, seed=9)
        out = njw_outcome(data, 2, master_seed=0)
        assert out.mode == "njw"
        assert out.n_clusters == 2
        assert max(node.depth for node in out.nodes) == 1
        assert all(leaf.leaf_reason == "single-pass" for leaf in out.leaves())
        assert partition_of(out.leaf_assignments) == partition_of(labels)

    def test_njw_outcome_k_one(self, rng):
        data = rng.normal(0, 1, (8, 2))
        out = njw_outcome(data, 1, master_seed=0)
        assert out.n_clusters == 1


@pytest.fixture
def distance_calls(monkeypatch):
    """Count calls of both distance functions, pairwise_distances and
    gram_distances, under every name the package binds them to, so no
    module can reach an unwrapped one."""
    calls = []

    def counting(original):
        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        return counted

    wrappers = {
        id(f): counting(f) for f in (linalg.pairwise_distances, linalg.gram_distances)
    }
    for name, module in list(sys.modules.items()):
        if name == "iescluster" or name.startswith("iescluster."):
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    monkeypatch.setattr(module, attr, wrappers[id(value)])
    return calls


class TestDistanceMatrixPerNode:
    """Every spectral node, whatever its scale, computes one distance matrix:
    a local scale is read from it, and the spectral chain turns it into the
    affinity and the Laplacian in place."""

    @pytest.mark.parametrize("mode", ["local", "global"])
    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_ies_one_call_per_spectral_node(self, distance_calls, mode, n_workers):
        data, _ = separated_blobs((25, 25, 25), seed=4)
        out = ies_cluster(data, mode, master_seed=0, n_workers=n_workers)
        spectral = sum(node.sigma is not None for node in out.nodes)
        assert spectral >= 4
        assert len(distance_calls) == spectral

    def test_els_one_call(self, distance_calls):
        data, _ = separated_blobs((25, 25, 25), seed=4)
        els_cluster(data, master_seed=0)
        assert len(distance_calls) == 1

    @pytest.mark.parametrize(
        "run",
        [
            lambda x: legacy_eigengap_cluster(x, master_seed=0),
            lambda x: njw_outcome(x, 3, master_seed=0),
            lambda x: elbow_sweep(x, (1, 6), estimate_global_sigma(x), seed=0),
        ],
        ids=["legacy", "njw", "elbow"],
    )
    def test_global_one_pass_one_call(self, distance_calls, run):
        data, _ = separated_blobs((25, 25, 25), seed=4)
        run(data)
        assert len(distance_calls) == 1


class TestOverflowingDistances:
    """Distances or a covariance that overflow to inf are a fault of the
    data: the local modes report them as InvalidDataError, as the Laplacian
    did before the scale estimate checked its sigmas, and the global modes
    as the covariance eigenvalues check their matrix."""

    def test_local_modes_raise_data_error(self):
        data, _ = separated_blobs((20, 20), seed=1)
        with pytest.raises(InvalidDataError):
            ies_cluster(data * 1e160, "local", master_seed=0)
        with pytest.raises(InvalidDataError):
            els_cluster(data * 1e160, master_seed=0)

    @pytest.mark.parametrize("factor", [1e160, 2.0**530])
    def test_global_modes_raise_data_error(self, factor):
        # The covariance of the global scale estimate overflows to inf.
        data, _ = separated_blobs((40, 40), seed=1)
        with pytest.raises(InvalidDataError):
            ies_cluster(data * factor, "global", master_seed=0)
        with pytest.raises(InvalidDataError):
            legacy_eigengap_cluster(data * factor, master_seed=0)


class TestSpectrumPath:
    """Where numpy bundles an ILP64 OpenBLAS, every spectral caller takes
    the tridiagonal path at every node size and eigh only at a tie; without
    it, every caller gets eigh's bits."""

    @pytest.fixture
    def eigh_shapes(self, monkeypatch):
        shapes = []
        original = linalg.symmetric_eigen

        def recorded(m, **kwargs):
            shapes.append(np.shape(m))
            return original(m, **kwargs)

        monkeypatch.setattr(linalg, "symmetric_eigen", recorded)
        return shapes

    @needs_library
    def test_ies_local_tree_without_full_eigh(self, eigh_shapes):
        # Close enough that no top eigenvalue of the root is tied with
        # another (a tie there takes eigh), far enough to split cleanly.
        data, labels = separated_blobs([200] * 4, separation=10.0, spread=1.0, dims=4, seed=0)
        out = ies_cluster(data, "local", master_seed=0)
        assert out.root.size == 800 and out.root.estimated_k == 4
        assert partition_of(out.leaf_assignments) == partition_of(labels)
        assert eigh_shapes == []

    @needs_library
    def test_fixed_k_callers_without_full_eigh(self, eigh_shapes):
        data, labels = separated_blobs([60] * 4, separation=10.0, spread=1.0, dims=4, seed=0)
        out = njw_outcome(data, 4, master_seed=0)
        assert partition_of(out.leaf_assignments) == partition_of(labels)
        curve = elbow_sweep(data, (1, 6), estimate_global_sigma(data), seed=0)
        assert [k for k, _ in curve] == list(range(1, 7))
        out = ies_cluster(data, "global", master_seed=0)
        assert partition_of(out.leaf_assignments) == partition_of(labels)
        assert eigh_shapes == []

    def test_without_library_every_caller_gets_eigh_bits(self, monkeypatch):
        data, _ = separated_blobs([60] * 3, separation=10.0, spread=1.0, dims=3, seed=1)
        monkeypatch.setattr(lapack, "library", lambda: None)
        blocked = spectral_results(data)
        monkeypatch.setattr(njw_module, "top_spectrum", linalg.symmetric_eigen)
        assert spectral_results(data) == blocked


def spectral_results(data):
    """Every spectral caller's result on ``data``, as comparable values: the
    trees' nodes and the elbow SSEs."""
    trees = [
        ies_cluster(data, "global", master_seed=0),
        ies_cluster(data, "local", master_seed=0),
        els_cluster(data, master_seed=0),
        legacy_eigengap_cluster(data, master_seed=0),
        njw_outcome(data, 3, master_seed=0),
    ]
    nodes = [
        [(n.id, n.estimated_k, n.leaf_reason, n.children, n.member_indices.tolist())
         for n in tree.nodes]
        for tree in trees
    ]
    curve = elbow_sweep(data, (1, 6), estimate_global_sigma(data), seed=0)
    return nodes, curve


@st.composite
def nested_layouts(draw):
    """``nested_scale_dataset`` layouts of 21-300 points: one group far from
    a pair of close subgroups."""
    return nested_scale_dataset(
        n_per_group=draw(st.integers(7, 100)),
        dims=draw(st.integers(2, 20)),
        fine_separation=draw(st.sampled_from([0.3, 1.0, 3.0])),
        spread=draw(st.sampled_from([0.05, 0.1, 0.3])),
        seed=draw(st.integers(0, 2**16)),
    ).features


class TestTreeOracle:
    """Whole trees on the shipped spectrum path against trees with every
    node's spectrum from eigh."""

    @settings(max_examples=40, deadline=None)
    @given(nested_layouts(), st.sampled_from(["global", "local"]))
    def test_partition_matches_eigh_tree(self, data, mode):
        shipped = ies_cluster(data, mode, master_seed=0)
        spectra = []

        def oracle(m):
            spec = linalg.symmetric_eigen(m)
            spectra.append(spec.values)
            return spec

        with mock.patch.object(njw_module, "top_spectrum", oracle):
            reference = ies_cluster(data, mode, master_seed=0)
        same = partition_of(shipped.leaf_assignments) == partition_of(reference.leaf_assignments)
        # Otherwise some node's top eigenspace must be tied inside the cuts
        # it uses, where the matrix does not determine its basis, on which
        # the node's k-means and its children's numbering and seeds depend.
        assert same or any(tied_inside_top_k(values) for values in spectra)


def tied_inside_top_k(values):
    """Whether a cut in [1, k), k the eigengap's, falls between two
    eigenvalues within n * eps * max|lambda| of each other."""
    k = eigengap_k(values, IesConfig().search_fraction).k
    tol = values.size * np.finfo(float).eps * np.max(np.abs(values))
    return bool(np.any(values[: k - 1] - values[1:k] <= tol))


def global_results(data):
    """The global-scale callers' results on ``data``: every node of the
    ies-global, legacy and NJW trees, σ² included, and the raw-space elbow
    curve, which depends on the per-k partitions alone; then the embedding
    elbow curve."""
    trees = [
        ies_cluster(data, "global", master_seed=0),
        legacy_eigengap_cluster(data, master_seed=0),
        njw_outcome(data, 3, master_seed=0),
    ]
    nodes = [
        [(n.id, n.depth, n.estimated_k, n.leaf_reason, n.children,
          n.member_indices.tolist(), n.sigma and (n.sigma.kind, n.sigma.sigma_sq))
         for n in tree.nodes]
        for tree in trees
    ]
    scaling = estimate_global_sigma(data)
    raw = elbow_sweep(data, (1, 6), scaling, seed=0, space="raw")
    return (nodes, raw), elbow_sweep(data, (1, 6), scaling, seed=0)


@contextlib.contextmanager
def exact_distances():
    """Every caller of ``gram_distances`` given ``pairwise_distances``."""
    with contextlib.ExitStack() as stack:
        for module in (ies_module, njw_module, validation_module):
            stack.enter_context(
                mock.patch.object(module, "gram_distances", linalg.pairwise_distances)
            )
        yield


def exact_local_sigmas(data, distances, k):
    """Local sigmas taken from the exact matrix's rows, ignoring ``distances``."""
    dist = linalg.pairwise_distances(data)
    k_eff = min(k, dist.shape[0] - 1)
    return ScalingEstimate(kind="local", local_sigmas=np.partition(dist, k_eff, axis=1)[:, k_eff])


def local_results(data):
    """Every node of the ies-local and ELS trees on ``data``, with the bits
    of its local sigmas."""
    return [
        [(n.id, n.depth, n.estimated_k, n.leaf_reason, n.children,
          n.member_indices.tolist(), n.sigma and n.sigma.local_sigmas.tolist())
         for n in tree.nodes]
        for tree in (ies_cluster(data, "local", master_seed=0), els_cluster(data, master_seed=0))
    ]


ORACLE_LAYOUTS = pytest.mark.parametrize(
    "make",
    [
        lambda: separated_blobs((25, 25, 25), seed=4)[0],
        lambda: separated_blobs([60] * 3, separation=10.0, spread=1.0, dims=3, seed=1)[0],
        lambda: nested_scale_dataset(n_per_group=60, seed=5).features,
        lambda: nested_scale_dataset(n_per_group=40, dims=20, seed=2).features + 1e8,
    ],
    ids=["blobs", "close-blobs", "nested", "nested-offset"],
)


class TestGramOracle:
    """Trees and elbow curves on the Gram distances against those built from
    the exact ``pairwise_distances``: in their place for the global scale,
    and as the source of every local sigma."""

    @ORACLE_LAYOUTS
    def test_global_callers_match_exact_distances(self, make):
        data = make()
        shipped = global_results(data)
        with exact_distances():
            reference = global_results(data)
        assert shipped[0] == reference[0]
        # Embedding SSEs are sums over an embedding that moves with the
        # distances' last bits; the partitions behind them are equal above.
        assert [k for k, _ in shipped[1]] == [k for k, _ in reference[1]]
        assert [v for _, v in shipped[1]] == pytest.approx([v for _, v in reference[1]], rel=1e-9)

    @ORACLE_LAYOUTS
    def test_local_callers_match_exact_sigmas(self, make):
        # The certified sigmas are the exact matrix's bits, so on the same
        # Gram affinities every node, and every sigma, is the same.
        data = make()
        data[1] = data[0]  # a duplicate: some sigma products are 0
        shipped = local_results(data)
        with mock.patch.object(ies_module, "estimate_local_sigmas", exact_local_sigmas):
            reference = local_results(data)
        assert shipped == reference
