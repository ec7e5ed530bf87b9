"""Exception types shared across the package."""


class DomainError(ValueError):
    """State outside the admissible phase-space domain (e.g. eccentricity >= 1)."""


class SingularityError(DomainError):
    """Operation undefined at this state (e.g. polar rates at zero eccentricity)."""


class InvalidParameterError(ValueError):
    """Non-finite or out-of-range physical / configuration parameter."""


class DecompositionError(ValueError):
    """Matrix decomposition failed (not symmetric positive definite)."""


class DegenerateInputError(ValueError):
    """Input data carries no usable extent (collinear points, zero range, all-zero weights)."""


class OutOfRangeError(ValueError):
    """Query point outside the covered grid or histogram range."""


class InvalidScalingError(ValueError):
    """Sigma-point set asked for fewer than one variable (no spread)."""


class PropagationError(RuntimeError):
    """A propagated state became unusable (non-finite, excessive failures)."""


class LibraryQualityError(RuntimeError):
    """Fitted split library violates its quality invariants."""


class GeometryError(RuntimeError):
    """Triangulation or interpolation failed."""


class ConfigError(ValueError):
    """Scenario configuration file failed to parse or validate."""
