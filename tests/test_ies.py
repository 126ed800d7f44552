import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import partition_of, separated_blobs
import iescluster.ies as ies_module
from iescluster import linalg
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
from iescluster.scaling import estimate_global_sigma, manual_global_sigma
from iescluster.synth import nested_scale_dataset
from iescluster.validation import evaluate


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

    def test_large_nodes_run_on_calling_thread(self, monkeypatch):
        # A low limit puts the root and its large children on the calling
        # thread and the rest in the pool; the tree must not change.
        ds = nested_scale_dataset(n_per_group=60, seed=5)
        monkeypatch.setattr(ies_module, "POOL_NODE_LIMIT", 100)
        threads = []
        original = ies_module._process_node

        def recorded(x, members, *args):
            threads.append((members.size, threading.get_ident()))
            return original(x, members, *args)

        monkeypatch.setattr(ies_module, "_process_node", recorded)
        caller = threading.get_ident()
        for mode in ("global", "local"):
            threads.clear()
            seq = ies_cluster(ds.features, mode, master_seed=0, n_workers=1)
            par = ies_cluster(ds.features, mode, master_seed=0, n_workers=2)
            par_threads = threads[len(threads) // 2 :]
            assert any(size >= 100 for size, _ in par_threads)
            assert any(size < 100 for size, _ in par_threads)
            for size, ident in par_threads:
                assert (ident == caller) == (size >= 100)
            assert np.array_equal(seq.leaf_assignments, par.leaf_assignments)
            assert [(a.id, a.children, a.leaf_reason) for a in seq.nodes] == [
                (b.id, b.children, b.leaf_reason) for b in par.nodes
            ]

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
    """Count pairwise_distances calls under every name the package binds it
    to, so no module can reach the unwrapped function."""
    calls = []
    original = linalg.pairwise_distances

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "iescluster" or name.startswith("iescluster."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


class TestDistanceMatrixPerNode:
    """Each spectral node computes its distance matrix exactly once; local
    nodes reuse the matrix of their scale estimate for the affinity."""

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


class TestOverflowingDistances:
    """Distances that overflow to inf are a fault of the data: the local
    modes report them as InvalidDataError, as the Laplacian did before the
    scale estimate checked its sigmas."""

    def test_local_modes_raise_data_error(self):
        data, _ = separated_blobs((20, 20), seed=1)
        with pytest.raises(InvalidDataError):
            ies_cluster(data * 1e160, "local", master_seed=0)
        with pytest.raises(InvalidDataError):
            els_cluster(data * 1e160, master_seed=0)

