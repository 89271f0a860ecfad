"""Exception taxonomy for perimap."""


class PerimapError(Exception):
    """Base class for all perimap errors."""


class DomainError(PerimapError):
    """An argument left the map's admissible domain (e.g. ||y|| > r1)."""


class EvaluationError(PerimapError):
    """A user-supplied evaluator returned non-finite or misshaped values."""


class MonotonicityError(PerimapError):
    """The x-advance map is not strictly increasing at these parameters."""


class ConvergenceError(PerimapError):
    """An iteration failed to converge within its budget."""


class IntegrationError(PerimapError):
    """The ODE integrator could not continue (step-size underflow etc.)."""


class NoReturnError(PerimapError):
    """No section crossing was found within the allotted horizon."""


class ChartError(PerimapError):
    """A section point could not be pulled back through the chart D."""


class CertificateError(PerimapError):
    """A requested numerical certificate could not be issued."""


class ConfigError(PerimapError):
    """Invalid experiment configuration."""
