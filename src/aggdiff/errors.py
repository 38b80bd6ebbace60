"""Exception types shared across the package."""


class ParameterDomainError(ValueError):
    """Raised when (d, s) or a derived parameter leaves its admissible range."""


class GridMismatchError(ValueError):
    """Raised when a field and a kernel do not share the same radial grid."""


class ConvergenceError(RuntimeError):
    """Raised when an iteration exhausts its budget or leaves its range."""
