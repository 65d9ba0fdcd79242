"""Exception hierarchy shared across the library.

Every error raised on invalid mathematical input derives from
:class:`OpSpectraError`, so callers (and the CLI) can distinguish domain
failures from programming errors.  :func:`require_addressable` is the one
guard on counts too large to size an array, :func:`require_integers`
the one rule for lags, times and counts, :func:`require_seed` for seeds,
:func:`_frozen` the one rule for the arrays a record keeps, and
:class:`_Record` the one base of the frozen records, which sets, shape-checks
and pickles their fields.
"""

import math
from dataclasses import fields

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


class _Record:
    """Base of every frozen record: the one site that sets a field, keeps an
    array field and rebuilds a record by its constructor to pickle or copy."""

    def _set(self, **values) -> None:
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def _keep(self, name: str, dtype, shape=None) -> np.ndarray:
        """Field ``name`` through :func:`_frozen`, set and returned; it must have
        ``shape`` (any if ``None``), where an extent ``None`` is free (``R``)."""
        a = _frozen(getattr(self, name), dtype)
        self._set(**{name: a})
        if shape is not None and not (
            a.ndim == len(shape) and all(n in (None, m) for n, m in zip(shape, a.shape))
        ):
            want = ", ".join("R" if n is None else str(n) for n in shape)
            raise DimensionError(f"{name} must have shape ({want}), got {a.shape}")
        return a

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


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
