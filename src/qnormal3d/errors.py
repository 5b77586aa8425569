"""Exception types shared across the package."""

__all__ = [
    "QNormalError",
    "NonConvergence",
    "DomainError",
    "DegenerateRecurrence",
    "DegenerateConditioning",
    "InsufficientSamples",
]


class QNormalError(Exception):
    """Base class for all library-specific errors."""


class NonConvergence(QNormalError):
    """A truncated series, product or adaptive quadrature hit its cap
    before reaching the requested tolerance, or a result lies outside the
    double range."""


class DomainError(QNormalError):
    """A point lies outside the support interval, or a parameter map is
    evaluated where it is undefined."""


class DegenerateRecurrence(QNormalError):
    """A three-term recurrence coefficient is singular for the given
    parameters."""


class DegenerateConditioning(QNormalError):
    """A conditional law is undefined: its conditioning point has zero
    density, or its mass vanished on the sampler's grid."""


class InsufficientSamples(QNormalError):
    """Too few draws to form the requested Monte Carlo estimate."""
