import numpy as np
import pytest

from iescluster.errors import InvalidParameterError
from iescluster.synth import (
    augment_with_noise,
    generate_synthetic,
    make_spec,
    nested_scale_dataset,
)


class TestGenerateSynthetic:
    def test_zero_spread_equals_center(self):
        spec = make_spec(
            [{"center": [2.0, -1.0], "spread": 0.0, "count": 5}], dims=2, seed=0
        )
        ds = generate_synthetic(spec)
        assert np.array_equal(ds.features, np.tile([2.0, -1.0], (5, 1)))
        assert ds.labels.tolist() == [0] * 5

    def test_seeded_determinism(self):
        spec = make_spec(
            [
                {"center": [0.0], "spread": 1.0, "count": 10},
                {"center": [5.0], "spread": 0.5, "count": 7},
            ],
            dims=1,
            seed=42,
        )
        a, b = generate_synthetic(spec), generate_synthetic(spec)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_labels_are_group_indices(self):
        spec = make_spec(
            [
                {"center": [0.0, 0.0], "spread": 0.1, "count": 3},
                {"center": [9.0, 0.0], "spread": 0.1, "count": 4},
            ],
            dims=2,
            seed=1,
        )
        ds = generate_synthetic(spec)
        assert ds.labels.tolist() == [0] * 3 + [1] * 4

    def test_white_noise_field(self):
        groups = [{"center": [0.0], "spread": 0.0, "count": 50}]
        clean = generate_synthetic(make_spec(groups, dims=1, seed=3))
        noisy = generate_synthetic(make_spec(groups, dims=1, seed=3, noise_sd=0.5))
        assert np.all(clean.features == 0)
        sd = noisy.features.std()
        assert 0.3 < sd < 0.7

    def test_validation_errors(self):
        with pytest.raises(InvalidParameterError):
            make_spec([], dims=2)
        with pytest.raises(InvalidParameterError):
            make_spec([{"center": [0.0], "spread": 1.0, "count": 0}], dims=1)
        with pytest.raises(InvalidParameterError):
            make_spec([{"center": [0.0, 1.0], "spread": 1.0, "count": 1}], dims=1)
        with pytest.raises(InvalidParameterError):
            make_spec([{"center": [0.0], "spread": -1.0, "count": 1}], dims=1)


class TestIntegerFields:
    groups = [{"center": [0.0, 1.0], "spread": 0.5, "count": 6},
              {"center": [4.0, 4.0], "spread": 0.5, "count": 5}]

    def test_integral_floats_give_the_integer_bits(self):
        as_float = [dict(g, count=float(g["count"])) for g in self.groups]
        a = make_spec(self.groups, dims=2, seed=3)
        b = make_spec(as_float, dims=2.0, seed=3.0)
        assert a == b
        assert [type(v) for v in (b.dims, b.seed, *(g.count for g in b.groups))] == [int] * 4
        assert np.array_equal(generate_synthetic(a).features, generate_synthetic(b).features)

    @pytest.mark.parametrize("count", [4.7, 0.5, float("inf"), float("nan"), 0, -2])
    def test_count_must_be_a_positive_integer(self, count):
        groups = [dict(self.groups[0], count=count)]
        with pytest.raises(InvalidParameterError, match="group count must be an integer"):
            make_spec(groups, dims=2)

    @pytest.mark.parametrize("dims", [2.5, float("inf"), float("nan"), 0])
    def test_dims_must_be_a_positive_integer(self, dims):
        with pytest.raises(InvalidParameterError, match="dims must be an integer"):
            make_spec(self.groups, dims=dims)


class TestNestedScaleDataset:
    def test_two_scale_layout(self):
        ds = nested_scale_dataset(n_per_group=50, dims=20, seed=0)
        assert ds.features.shape == (150, 20)
        assert np.unique(ds.labels).tolist() == [0, 1, 2]
        centers = np.stack([ds.features[ds.labels == g].mean(axis=0) for g in range(3)])
        d01 = np.linalg.norm(centers[0] - centers[1])
        d12 = np.linalg.norm(centers[1] - centers[2])
        assert d01 == pytest.approx(100.0, rel=0.05)
        assert d12 == pytest.approx(1.0, rel=0.2)


class TestAugmentWithNoise:
    def test_grows_to_target_proportionally(self):
        ds = nested_scale_dataset(n_per_group=20, dims=4, seed=1)
        grown = augment_with_noise(ds, target_size=120, noise_sd=0.05, seed=0)
        assert grown.n == 120
        _, counts = np.unique(grown.labels, return_counts=True)
        assert counts.tolist() == [40, 40, 40]
        # original rows are kept verbatim at the front
        assert np.array_equal(grown.features[: ds.n], ds.features)

    def test_deterministic(self):
        ds = nested_scale_dataset(n_per_group=10, dims=3, seed=2)
        a = augment_with_noise(ds, 50, 0.1, seed=9)
        b = augment_with_noise(ds, 50, 0.1, seed=9)
        assert np.array_equal(a.features, b.features)

    def test_errors(self):
        ds = nested_scale_dataset(n_per_group=10, dims=3, seed=2)
        with pytest.raises(InvalidParameterError):
            augment_with_noise(ds, 5, 0.1)
        from iescluster.dataset import Dataset

        with pytest.raises(InvalidParameterError):
            augment_with_noise(Dataset(features=ds.features), 100, 0.1)
