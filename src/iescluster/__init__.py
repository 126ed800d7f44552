"""Automated spectral clustering for multi-scale data.

Scaling parameters are estimated from the data (PCA-based global sigma^2 or
per-point local sigma), cluster counts come from the Laplacian eigengap, and
the iterative eigengap search refines clusters down a divisive tree until
every leaf is spectrally indivisible.
"""

from .affinity import affinity_global, affinity_local, normalized_laplacian
from .dataset import Dataset, load_dataset, save_dataset
from .eigengap import EigengapEstimate, eigengap_k
from .errors import (
    ClusteringError,
    DegenerateDataError,
    DegenerateEmbeddingError,
    DimensionError,
    InsufficientDataError,
    InvalidDataError,
    InvalidParameterError,
    IsolatedPointsError,
)
from .ies import (
    ClusteringOutcome,
    ClusterTreeNode,
    IesConfig,
    els_cluster,
    ies_cluster,
    legacy_eigengap_cluster,
    njw_outcome,
)
from .kmeans import KMeansResult, kmeans
from .linalg import Spectrum
from .njw import njw_cluster, spectral_embed
from .scaling import ScalingEstimate, estimate_global_sigma, estimate_local_sigmas, manual_global_sigma
from .synth import (
    SyntheticSpec,
    augment_with_noise,
    generate_synthetic,
    make_spec,
    nested_scale_dataset,
)
from .validation import (
    AssociationMatrix,
    ConfusionMatrix,
    MetricsReport,
    association_matrix,
    confusion_from_association,
    elbow_sweep,
    evaluate,
    metrics,
)

__version__ = "0.1.0"
