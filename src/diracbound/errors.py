"""Exception types shared across the package, all DiracBoundErrors.

Each message names the rejected field, parameter or relation."""


class DiracBoundError(Exception):
    """Base class for every error raised by this package."""


class MalformedDocument(DiracBoundError, ValueError):
    """A profile or spec document has the wrong shape: a missing, unknown,
    mistyped or non-finite field."""


class DimensionError(DiracBoundError):
    """A dimension argument is outside the supported range."""


class InconsistentProfile(DiracBoundError):
    """Curvature data violates a consistency relation; the message names it."""


class ParameterRange(DiracBoundError):
    """A tuning parameter lies outside its admissible interval."""


class CompositionError(DiracBoundError):
    """A product spec would break exact additivity of the curvature minima."""


class UnknownExample(DiracBoundError):
    """No catalog entry is registered under the requested name."""


class NonPositiveF(DiracBoundError):
    """The warp function is not positive, or its orbit would reach F <= 0."""


class NotSymmetric(DiracBoundError):
    """A matrix that must be symmetric is not."""


class ShapeError(DiracBoundError):
    """A tensor argument has the wrong shape or slot symmetry."""


class CrossCheckFailed(DiracBoundError, ArithmeticError):
    """Two routes to the same number disagree: a fault of the computation,
    not of the input."""
