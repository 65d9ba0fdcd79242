"""Autocovariance sequences and the Herglotz correspondence on the grid.

The autocovariance operator function of the process synthesised from an
atomic measure is ``Gamma(h) = sum_j exp(i lambda_j h) nu_j``.  On the
uniform grid ``lambda_k = -pi + 2 pi k / M`` the correspondence inverts
exactly by a discrete Fourier sum, and positive-definiteness of the
sequence can be certified by finite block matrices.

Both directions of the correspondence, and process synthesis, are
discrete Fourier transforms when the support is exactly the M-point grid
(:func:`on_grid`, which allows a few ulps of pi): :func:`fourier_sum`
then computes them with ``np.fft`` in ``O(M log M)`` per entry.  Every
other support, near-grid ones included, takes the dense phase sum.

Grid inversion assumes the atoms sit on the M-point grid; off-grid atoms
alias.  This is a modeling assumption, not an estimator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    CoverageError,
    DimensionError,
    NotPositiveTypeError,
    PositivityError,
    SampleSizeError,
)
from .operators import psd_check
from .povm import AtomicTracePovm, wrap_frequencies

__all__ = [
    "AutocovarianceSequence",
    "autocov_from_povm",
    "empirical_autocov",
    "fourier_sum",
    "grid_frequencies",
    "hermitian_nnd_check",
    "on_grid",
    "positive_type_check",
    "povm_from_autocov_grid",
]


def grid_frequencies(m: int) -> np.ndarray:
    """The uniform M-point grid ``-pi + 2 pi k / M`` in canonical order.

    The endpoint ``-pi`` is wrapped to the equivalent character ``pi``, so
    the result is strictly increasing inside ``(-pi, pi]``.
    """
    if m < 1:
        raise DimensionError("grid size must be positive")
    raw = -np.pi + 2.0 * np.pi * np.arange(m) / m
    return np.sort(wrap_frequencies(raw))


# Grid detection is ulp-tight: jittering the grid by 1e-9 moves lag t of the
# sum by about 1e-9 t relative, far above round-off, so near-grid supports
# must take the dense path.
_GRID_TOL = 4.0 * np.spacing(np.pi)


def on_grid(freqs) -> bool:
    """True when ``freqs`` are ``grid_frequencies(M)`` for their count M,
    to within a few ulps of pi."""
    freqs = np.asarray(freqs, dtype=np.float64).ravel()
    return bool(np.abs(freqs - grid_frequencies(freqs.size)).max() <= _GRID_TOL)


def fourier_sum(freqs, stack, count: int) -> np.ndarray:
    """``out[t] = sum_j exp(i lambda_j t) stack[j]`` for ``t = 0..count-1``.

    ``stack`` has shape ``(n, ...)`` with one slice per frequency.  On the
    exact n-point grid, ``lambda_j = -pi + 2 pi (j + 1) / n``, so the sum is
    ``(-1)^t n ifft(roll(stack, 1))[t mod n]`` for any ``count``.  Every
    other support takes the dense phase sum.
    """
    freqs = np.asarray(freqs, dtype=np.float64).ravel()
    t = np.arange(count)
    if not on_grid(freqs):
        phases = np.exp(1j * np.outer(t, freqs))
        return np.tensordot(phases, stack, axes=(1, 0))
    n = freqs.size
    out = np.fft.ifft(np.roll(stack, 1, axis=0), axis=0)[t % n]
    out *= n
    out[1::2] *= -1.0
    return out


@dataclass(frozen=True, eq=False)
class AutocovarianceSequence:
    """Autocovariance operators for lags ``0..max_lag``.

    Negative lags are implied by the weak stationarity symmetry
    ``Gamma(-h) = Gamma(h)^H``.
    """

    dim: int
    max_lag: int
    values: np.ndarray

    def __post_init__(self):
        # a private read-only copy, so the caller's array cannot change it
        vals = np.array(self.values, dtype=np.complex128)
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        if vals.shape != (self.max_lag + 1, self.dim, self.dim):
            raise DimensionError(
                f"values must have shape {(self.max_lag + 1, self.dim, self.dim)}"
            )
        if not np.isfinite(vals).all():
            raise DimensionError("autocovariance entries must be finite")
        if not psd_check(vals[0], 1e-8):
            raise DimensionError("lag-0 autocovariance must be PSD")

    def gamma(self, h: int) -> np.ndarray:
        """Value at a signed lag, using the Hermitian symmetry for h < 0."""
        return _lag_table(self, [h, 0])[0, 1]


def autocov_from_povm(nu: AtomicTracePovm, max_lag: int) -> AutocovarianceSequence:
    """Autocovariance ``Gamma(h) = sum_j exp(i lambda_j h) nu_j``.

    A measure on the exact M-point grid is summed by one inverse DFT of
    length M, whatever ``max_lag``; any other support takes the dense phase
    sum (:func:`fourier_sum`).
    """
    if max_lag < 0:
        raise DimensionError("max_lag must be non-negative")
    values = fourier_sum(nu.freqs, nu.weights, max_lag + 1)
    return AutocovarianceSequence(dim=nu.dim, max_lag=max_lag, values=values)


def povm_from_autocov_grid(gamma: AutocovarianceSequence, m: int) -> AtomicTracePovm:
    """Recover the atoms of a grid-supported measure from ``Gamma``.

    Assumes the sequence was generated by atoms on the M-point grid and
    computes ``nu_k = (1/M) sum_{h=0}^{M-1} Gamma(h) exp(-i lambda_k h)``,
    which on this grid is the DFT ``roll(fft((-1)^h Gamma(h)), -1) / M``.
    Every recovered atom must pass the measure's PSD validation; otherwise
    the input is rejected as not of positive type on this grid.
    """
    if gamma.max_lag < m - 1:
        raise CoverageError(
            f"grid inversion with M={m} needs lags up to {m - 1},"
            f" got {gamma.max_lag}"
        )
    freqs = grid_frequencies(m)
    signed = gamma.values[:m].copy()
    signed[1::2] *= -1.0
    weights = np.roll(np.fft.fft(signed, axis=0), -1, axis=0) / m
    try:
        return AtomicTracePovm(dim=gamma.dim, freqs=freqs, weights=weights)
    except PositivityError as exc:
        raise NotPositiveTypeError(
            f"recovered {exc}: the sequence is not of positive type on this grid"
        ) from exc


def _lag_table(gamma: AutocovarianceSequence, times) -> np.ndarray:
    """``table[i, j] = Gamma(t_i - t_j)``, shape ``(n, n, dim, dim)``: the
    stored value at ``|t_i - t_j|``, conjugate-transposed for negative lags.

    Times must be Python or numpy integers (not ``bool``); anything else
    raises :class:`DimensionError` rather than being truncated."""
    times = list(times)
    if not all(
        isinstance(x, (int, np.integer)) and not isinstance(x, bool) for x in times
    ):
        raise DimensionError("time points and lags must be integers")
    t = np.array(times, dtype=np.int64)
    lags = t[:, None] - t[None, :]
    outside = np.abs(lags) > gamma.max_lag
    if outside.any():
        raise CoverageError(
            f"lag {lags[outside][0]} outside stored range +-{gamma.max_lag}"
        )
    table = gamma.values[np.abs(lags)]
    negative = lags < 0
    table[negative] = table[negative].conj().swapaxes(-1, -2)
    return table


def positive_type_check(gamma: AutocovarianceSequence, times, vectors=None) -> bool:
    """Positive-type certificate over a finite set of time points.

    Assembles the block matrix ``[Gamma(t_i - t_j)]`` and checks it is PSD
    (:func:`~opspectra.operators.psd_check` at ``1e-10``), which certifies
    ``sum <Gamma(t_i - t_j) x_j, x_i> >= 0`` for every choice of vectors.
    When explicit ``vectors`` are given, only that quadratic form is
    evaluated, against ``1e-10`` times the block's trace norm (its trace,
    as ``Gamma(0)`` is PSD), so the answer does not change when the
    sequence is scaled.
    """
    table = _lag_table(gamma, times)
    n, d = table.shape[0], gamma.dim
    if n == 0:
        raise DimensionError("at least one time point is required")
    block = table.swapaxes(1, 2).reshape(n * d, n * d)
    if vectors is not None:
        x = np.asarray(vectors, dtype=np.complex128).reshape(-1)
        if x.size != block.shape[0]:
            raise DimensionError("stacked vectors must match the block size")
        form = (x.conj() @ block @ x).real
        return bool(form >= -1e-10 * float(np.abs(np.trace(block))))
    return psd_check(block, 1e-10)


def hermitian_nnd_check(gamma: AutocovarianceSequence, times, coeffs) -> bool:
    """Hermitian non-negative definiteness over times and scalar weights.

    Checks that ``sum_ij a_i conj(a_j) Gamma(t_i - t_j)`` is PSD, by
    :func:`~opspectra.operators.psd_check` at ``1e-10``.
    """
    table = _lag_table(gamma, times)
    a = np.asarray(coeffs, dtype=np.complex128).ravel()
    if a.size != table.shape[0]:
        raise DimensionError("one coefficient per time point is required")
    return psd_check(np.einsum("i,j,ijab->ab", a, a.conj(), table), 1e-10)


def empirical_autocov(sample, max_lag: int):
    """Monte Carlo estimate of the autocovariance from an ensemble.

    ``sample.values`` must hold R independent realizations over a common
    period.  Returns ``(sequence, se_scale)`` where ``se_scale = R**-0.5``
    calibrates standard-error bands.
    """
    x = np.asarray(sample.values, dtype=np.complex128)
    if x.ndim != 3:
        raise DimensionError("expected ensemble values of shape (R, M, N)")
    r, m, dim = x.shape
    if r < 2:
        raise SampleSizeError(f"need at least 2 realizations, got {r}")
    if max_lag >= m:
        raise CoverageError(f"max_lag {max_lag} needs a period longer than {m}")
    values = np.empty((max_lag + 1, dim, dim), dtype=np.complex128)
    for h in range(max_lag + 1):
        lead = x[:, h:m, :].reshape(-1, dim)
        trail = x[:, : m - h, :].reshape(-1, dim)
        values[h] = (lead.T @ trail.conj()) / (r * (m - h))
    # Symmetrise lag 0 so the PSD invariant holds exactly.
    values[0] = (values[0] + values[0].conj().T) / 2.0
    return AutocovarianceSequence(dim=dim, max_lag=max_lag, values=values), r ** -0.5
