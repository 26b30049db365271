"""Exception hierarchy shared by all convexinfo modules."""


class ConvexInfoError(Exception):
    """Base class for all library errors."""


class ValidationError(ConvexInfoError):
    """Base class for bad-input errors (CLI maps these to exit code 2)."""


# -- probability vectors ------------------------------------------------------

class InvalidProbVector(ValidationError):
    pass


class AllZero(InvalidProbVector):
    """Every weight handed to normalize() is (numerically) zero."""


class NegativeWeight(InvalidProbVector):
    """A weight handed to normalize() is negative beyond tolerance."""


# -- entropic pairs -----------------------------------------------------------

class BadParameter(ValidationError):
    """Preset parameter out of range (alpha/q must be > 0 and != 1)."""


class InvalidEntropicPair(ValidationError):
    """An (h, phi) pair violates its defining regularity conditions."""


# -- quantum layer ------------------------------------------------------------

class InvalidDensityMatrix(ValidationError):
    pass


class InvalidPovm(ValidationError):
    pass


class DimensionMismatch(ValidationError):
    pass


class NotNormalized(ValidationError):
    pass


# -- convex kernel ------------------------------------------------------------

class DegenerateModel(ValidationError):
    """Duplicate, non-spanning or excessive vertex data."""


class TooLarge(ValidationError):
    """Instance exceeds the desk-scale caps this library commits to."""


class InfeasibleDecomposition(ValidationError):
    """The state has no convex decomposition over the given vertices."""


class LpNumericalError(ConvexInfoError):
    """The LP solver could not certify its answer; never a silent wrong result."""


# -- GPT models and spectra ---------------------------------------------------

class NotAState(ValidationError):
    """Point is outside the model's state polytope."""


class InvalidEffect(ValidationError):
    pass


class IncompleteFrame(ValidationError):
    """Frame effects fail to resolve the state into a unit total."""


class NoFrames(ConvexInfoError):
    """The model admits no frame at all."""


class SpectrumUndefined(ConvexInfoError):
    """A generalized spectrum was required but the majorant does not exist.

    Carries the offending state so callers can report which side of a
    comparison failed.
    """

    def __init__(self, message, state=None):
        super().__init__(message)
        self.state = state


class UnsupportedModel(ValidationError):
    """Operation is only defined for a documented family of models."""


def _expect(value, kind: type, error: type):
    """``value``, unless it is not a ``kind``: then ``error`` naming both types,
    so a raw list or array ends in a named error, not an ``AttributeError``."""
    if not isinstance(value, kind):
        raise error(f"expected {kind.__name__}, got {type(value).__name__}")
    return value
