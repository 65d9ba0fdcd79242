"""Exception hierarchy shared across the library.

Every error raised on invalid mathematical input derives from
:class:`OpSpectraError`, so callers (and the CLI) can distinguish domain
failures from programming errors.
"""


class OpSpectraError(Exception):
    """Base class for all library-specific errors."""


class DimensionError(OpSpectraError, ValueError):
    """Operands have incompatible or invalid shapes."""


class FormatError(DimensionError):
    """An input document's arrays do not match the counts it declares."""


class PositivityError(OpSpectraError, ValueError):
    """A positive semi-definite operator was expected."""


class AbsoluteContinuityError(OpSpectraError, ValueError):
    """A dominating measure fails to dominate the variation measure."""


class IntegrabilityError(OpSpectraError, ValueError):
    """A transfer function is not square integrable against the measure."""


class AlignmentError(OpSpectraError, ValueError):
    """Frequency supports (or breakpoints) of two objects do not match."""


class CoverageError(OpSpectraError, ValueError):
    """A lag outside the stored range of an autocovariance was requested."""


class NotPositiveTypeError(OpSpectraError, ValueError):
    """Grid inversion produced a non-PSD atom: the input sequence is not
    of positive type on the requested grid."""


class NonInvertibleError(OpSpectraError, ValueError):
    """A transfer function fails the injectivity requirement for inversion."""


class SampleSizeError(OpSpectraError, ValueError):
    """An ensemble is too small for the requested estimator."""
