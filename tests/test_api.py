"""The package's public surface: adding or removing a name is deliberate."""

import inspect
from importlib import import_module

import iescluster

PUBLIC = {
    "AssociationMatrix", "ClusterTreeNode", "ClusteringError", "ClusteringOutcome",
    "ConfusionMatrix", "Dataset", "DegenerateDataError", "DegenerateEmbeddingError",
    "DimensionError", "EigengapEstimate", "IesConfig", "InsufficientDataError",
    "InvalidDataError", "InvalidParameterError", "IsolatedPointsError", "KMeansResult",
    "MetricsReport", "ScalingEstimate", "Spectrum", "SyntheticSpec", "affinity_global",
    "affinity_local", "association_matrix", "augment_with_noise",
    "confusion_from_association", "eigengap_k", "elbow_sweep", "els_cluster",
    "estimate_global_sigma", "estimate_local_sigmas", "evaluate", "generate_synthetic",
    "ies_cluster", "kmeans", "legacy_eigengap_cluster", "load_dataset", "make_spec",
    "manual_global_sigma", "metrics", "nested_scale_dataset", "njw_cluster",
    "njw_outcome", "normalized_laplacian", "save_dataset", "spectral_embed",
}


def test_public_names():
    # Submodules are left out: which of them are bound depends on what the
    # session has imported (the CLI, say).
    exported = {
        name
        for name, value in vars(iescluster).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert exported == PUBLIC
    # The test oracles live in tests/conftest.py, not in the library.
    for module, name in (
        ("iescluster.linalg", "pairwise_distances"),
        ("iescluster.linalg", "symmetric_eigen"),
        ("iescluster.kmeans", "sse"),
    ):
        assert not hasattr(import_module(module), name)
