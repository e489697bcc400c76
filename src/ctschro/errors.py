"""Exception types shared across the package."""


class LabError(Exception):
    """Base class for all package-specific failures."""


class ConfigError(LabError, ValueError):
    """A run configuration is malformed or inconsistent."""


class ResolutionError(LabError, ValueError):
    """A grid is too coarse for the requested construction."""

class GridRangeError(LabError, ValueError):
    """A query leaves the covered range of a grid or table."""


class DomainError(LabError, ValueError):
    """An argument lies outside the set where an operation is defined."""


class RegimeError(LabError, ValueError):
    """A parameter combination is outside the supported hypotheses."""


class RootBracketError(LabError, ArithmeticError):
    """A root finder could not bracket its root (inconsistent parameters)."""


class DegenerateSeriesError(LabError, ValueError):
    """A series handed to a log-log fit contains non-positive values."""


class ZeroNormError(LabError, ZeroDivisionError):
    """A normalization norm vanished."""


class CalibrationError(LabError, RuntimeError):
    """Auto-calibration of the smallness constant underflowed."""
