"""Exception hierarchy shared across the library.

Every error raised on invalid mathematical input derives from
:class:`OpSpectraError`, so callers (and the CLI) can distinguish domain
failures from programming errors.  :func:`require_addressable` is the one
guard on counts too large to size an array, :func:`require_integers`
the one rule for lags, times and counts, :func:`require_seed` for seeds,
and :func:`_frozen` the one rule for the arrays a record keeps.
"""

import math

import numpy as np


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


def require_integers(what: str, *values) -> list:
    """Every value as a Python ``int``, for a record to store; raise
    :class:`DimensionError` unless each is a Python or numpy integer (a
    ``bool`` or a float raises rather than being truncated)."""
    if not all(
        isinstance(x, (int, np.integer)) and not isinstance(x, bool) for x in values
    ):
        raise DimensionError(f"{what} must be integers")
    return [int(x) for x in values]


def require_seed(seed) -> None:
    """Raise :class:`DimensionError` unless ``seed`` is a non-negative integer."""
    if require_integers("seeds", seed)[0] < 0:
        raise DimensionError(f"seed must be non-negative, got {seed}")


def _frozen(value, dtype) -> np.ndarray:
    """``value`` as a read-only ``dtype`` array no other array can change:
    kept if read-only with a ``.base`` chain of read-only arrays ending in
    one that owns its data, only marked if freshly converted (a list, a
    dtype change), else copied once and marked."""
    a = np.asarray(value, dtype=dtype)
    if a is value or a.base is not None:
        link = a
        while isinstance(link, np.ndarray) and not link.flags.writeable:
            if link.flags.owndata:
                return a
            link = link.base
        a = a.copy()
    a.flags.writeable = False
    return a


def require_addressable(what: str, *dims) -> None:
    """Raise :class:`DimensionError` when a complex128 array of shape
    ``dims`` takes more bytes than ``np.intp`` can index, so that ``what``
    (which names the count) is refused before numpy's bare ``ValueError``.
    The product is taken in Python integers, so numpy integer counts do
    not wrap.  Counts that fit but exhaust the memory at hand still raise
    :class:`MemoryError` when allocated."""
    entries = math.prod(int(n) for n in dims)
    if 16 * entries > np.iinfo(np.intp).max:
        raise DimensionError(
            f"{what} need {entries} complex entries, beyond what numpy can address"
        )
