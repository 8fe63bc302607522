"""Exception types shared across the package."""


class BlaqError(Exception):
    """Base class for package-specific errors."""


class NumericError(BlaqError):
    """A computation produced non-finite values."""


class StateError(BlaqError):
    """An operation was called in an invalid order (e.g. backward before forward)."""


class FormatError(BlaqError):
    """A data file failed structural validation."""


class ConfigError(BlaqError):
    """An experiment configuration failed validation."""


class CheckFailed(BlaqError):
    """A run-level assertion (ordering, threshold) did not hold."""
