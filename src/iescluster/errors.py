"""Exception types shared across the package, with CLI exit-code mapping."""


class ClusteringError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(ClusteringError):
    """Shapes or lengths of inputs are inconsistent."""


class InvalidDataError(ClusteringError):
    """Input data violates a structural requirement (NaN/Inf, empty, unsorted)."""


class InsufficientDataError(ClusteringError):
    """Too few observations for the requested operation."""


class InvalidParameterError(ClusteringError):
    """A parameter is outside its valid range."""


class DegenerateDataError(ClusteringError):
    """Data carries no variance; the caller should treat the node as a leaf."""


class DegenerateEmbeddingError(ClusteringError):
    """A spectral embedding row is numerically zero and cannot be normalized."""


class IsolatedPointsError(ClusteringError):
    """Some points have zero total affinity; carries their row indices."""

    def __init__(self, indices):
        self.indices = tuple(int(i) for i in indices)
        super().__init__(f"isolated points with zero affinity row: {self.indices}")


EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

_CONFIG_ERRORS = (InvalidParameterError,)
_DATA_ERRORS = (DimensionError, InvalidDataError, InsufficientDataError)


def exit_code_for(exc: Exception) -> int:
    """Map an exception to the CLI exit code contract (2 config, 3 data, 4 numerical)."""
    if isinstance(exc, _CONFIG_ERRORS):
        return EXIT_CONFIG
    if isinstance(exc, _DATA_ERRORS):
        return EXIT_DATA
    return EXIT_NUMERIC
