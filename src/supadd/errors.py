"""Exception types shared across the package."""


class SupaddError(Exception):
    """Base class for all package errors."""


class InvalidInput(SupaddError, ValueError):
    """Argument outside the documented domain (shape, range, finiteness)."""


class LinearDependence(SupaddError):
    """States (or Gram matrix) are numerically linearly dependent."""


class ResourceLimit(SupaddError):
    """Requested dimension exceeds the configured memory guard."""


class NoRoot(SupaddError):
    """A bracketing search found no sign change on the scanned interval."""


class Unconverged(SupaddError):
    """bayes_cost_reduction hit its iteration limit, _MAX_SWEEPS, before
    meeting the residual tolerance.

    Carries the iterate of least error: `measurement` is its (M, dim)
    array of measurement rows and `report` its OptimalityReport.
    """

    def __init__(self, message, measurement=None, report=None):
        super().__init__(message)
        self.measurement = measurement
        self.report = report
