"""Gaussian orthogonally scattered random measures on an atomic support.

Sampling draws, for every atom, independent circularly-symmetric complex
Gaussian vectors ``Z_j = nu_j^{1/2} xi_j`` so that the ensemble covariance
of ``Z_j`` converges to the atom weight ``nu_j`` and atoms are mutually
uncorrelated.  Everything downstream of sampling is a pure finite sum:

* the stochastic integral ``int Phi dW = sum_j Phi_j Z_j``,
* process synthesis ``X_t = sum_j exp(i lambda_j t) Z_j``,
* the correspondence with orthogonal-increment paths.

Randomness comes from a counter-based Philox generator with one substream
per atom, derived from ``(seed, atom index)``; results are therefore
independent of the order in which atoms are processed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bochner import fourier_sum
from .errors import AlignmentError, DimensionError, SampleSizeError
from .povm import AtomicTracePovm, require_integrable
from .transfer import DOMAIN_TOL, FREQ_MERGE_TOL, TransferFunction, require_aligned

__all__ = [
    "IncrementPath",
    "ProcessSample",
    "RandomMeasure",
    "empirical_gramian",
    "from_increment_path",
    "sample_gaussian_measure",
    "sample_real_gaussian_measure",
    "spectral_integral",
    "synthesize_process",
    "to_increment_path",
]


@dataclass(frozen=True)
class RandomMeasure:
    """Sampled random measure: per-atom complex Gaussian ensembles."""

    dim: int
    freqs: np.ndarray
    samples: np.ndarray
    intensity: AtomicTracePovm

    def __post_init__(self):
        freqs = np.asarray(self.freqs, dtype=np.float64).ravel()
        samples = np.asarray(self.samples, dtype=np.complex128)
        object.__setattr__(self, "freqs", freqs)
        object.__setattr__(self, "samples", samples)
        if samples.ndim != 3 or samples.shape[0] != freqs.size:
            raise DimensionError("samples must have shape (atoms, R, dim)")
        if samples.shape[2] != self.dim:
            raise DimensionError("sample vectors must match the space dimension")
        require_aligned(freqs, self.intensity.freqs)

    @property
    def n_atoms(self) -> int:
        return self.freqs.size

    @property
    def n_realizations(self) -> int:
        return self.samples.shape[1]

    def restrict(self, atom_mask) -> np.ndarray:
        """Evaluate the measure on a union of atoms: sum of their samples."""
        mask = np.asarray(atom_mask, dtype=bool)
        if mask.shape != self.freqs.shape:
            raise DimensionError("atom mask must align with the atoms")
        return self.samples[mask].sum(axis=0)


@dataclass(frozen=True)
class ProcessSample:
    """Ensemble of time series over one period: values of shape (R, M, N)."""

    dim: int
    period: int
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.complex128)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 3 or vals.shape[1] != self.period or vals.shape[2] != self.dim:
            raise DimensionError("values must have shape (R, period, dim)")
        if not np.isfinite(vals).all():
            raise DimensionError("process values must be finite")

    @property
    def n_realizations(self) -> int:
        return self.values.shape[0]


def _atom_rng(seed: int, atom: int) -> np.random.Generator:
    ss = np.random.SeedSequence(int(seed), spawn_key=(int(atom),))
    return np.random.Generator(np.random.Philox(ss))


def sample_gaussian_measure(
    nu: AtomicTracePovm,
    n_realizations: int,
    seed: int,
    _atom_order=None,
) -> RandomMeasure:
    """Draw a Gaussian random measure ensemble with intensity ``nu``.

    For every atom, ``Z_j = nu_j^{1/2} xi_j`` with ``xi_j`` standard
    circularly-symmetric complex Gaussian (real and imaginary parts i.i.d.
    N(0, 1/2)).  Atoms and realizations are independent, and the output is
    a deterministic function of ``seed`` alone: each atom has its own
    counter-based substream, so any processing order gives identical
    results (``_atom_order`` exists to demonstrate this in tests).
    """
    if n_realizations < 1:
        raise SampleSizeError("need at least one realization")
    n, dim = int(n_realizations), nu.dim
    out = np.empty((nu.n_atoms, n, dim), dtype=np.complex128)
    order = range(nu.n_atoms) if _atom_order is None else _atom_order
    roots = nu.sqrt_weights()
    for j in order:
        draws = _atom_rng(seed, j).standard_normal((n, 2 * dim))
        xi = (draws[:, :dim] + 1j * draws[:, dim:]) * np.sqrt(0.5)
        out[j] = xi @ roots[j].T
    return RandomMeasure(dim=dim, freqs=nu.freqs, samples=out, intensity=nu)


def sample_real_gaussian_measure(
    nu: AtomicTracePovm, n_realizations: int, seed: int
) -> RandomMeasure:
    """Sample with conjugate-symmetric atom pairing for real synthesis.

    Requires a symmetric support: every atom at ``0 < lambda < pi`` needs a
    mirror atom at ``-lambda`` with the transposed weight, and the weights
    at ``0`` and ``pi`` must be real.  Samples at mirror atoms are complex
    conjugates and samples at the self-paired atoms are real Gaussian, so
    the synthesised process is real-valued.  The atom covariances still
    match the intensity, but the self-paired atoms are not circularly
    symmetric; this is a modeling extension for real-valued output.
    """
    if n_realizations < 1:
        raise SampleSizeError("need at least one realization")
    n, dim = int(n_realizations), nu.dim
    freqs = nu.freqs
    partner = np.full(freqs.size, -1, dtype=np.int64)
    for j, lam in enumerate(freqs):
        if abs(lam) <= FREQ_MERGE_TOL or abs(lam - np.pi) <= FREQ_MERGE_TOL:
            partner[j] = j
            continue
        match = np.nonzero(np.abs(freqs + lam) <= FREQ_MERGE_TOL)[0]
        if match.size != 1:
            raise AlignmentError(
                f"atom {j} at {lam:+.6f} has no mirror atom at {-lam:+.6f}"
            )
        partner[j] = int(match[0])
    out = np.empty((freqs.size, n, dim), dtype=np.complex128)
    roots = nu.sqrt_weights()
    for j in range(freqs.size):
        k = int(partner[j])
        if k == j:
            if np.abs(nu.weights[j].imag).max() > 1e-10:
                raise DimensionError(
                    f"self-paired atom {j} needs a real weight for real output"
                )
            out[j] = _atom_rng(seed, j).standard_normal((n, dim)) @ roots[j].real.T
        elif k > j:
            mirror_defect = np.abs(nu.weights[k] - nu.weights[j].T).max()
            if mirror_defect > 1e-10 * max(1.0, np.abs(nu.weights[j]).max()):
                raise DimensionError(
                    f"atoms {j} and {k} are not transposes of each other"
                )
            draws = _atom_rng(seed, j).standard_normal((n, 2 * dim))
            xi = (draws[:, :dim] + 1j * draws[:, dim:]) * np.sqrt(0.5)
            out[j] = xi @ roots[j].T
            out[k] = out[j].conj()
    return RandomMeasure(dim=dim, freqs=freqs, samples=out, intensity=nu)


def spectral_integral(
    phi: TransferFunction, w: RandomMeasure, tol: float = DOMAIN_TOL
) -> np.ndarray:
    """Stochastic integral ``int Phi dW`` per realization, shape (R, out)."""
    require_integrable(phi, w.intensity, tol)
    acc = np.zeros((w.n_realizations, phi.out_dim), dtype=np.complex128)
    for j in range(w.n_atoms):
        acc += phi.apply_at(j, w.samples[j], tol)
    return acc


def synthesize_process(w: RandomMeasure, period: int) -> ProcessSample:
    """Synthesise ``X_t = sum_j exp(i lambda_j t) Z_j`` for t = 0..period-1.

    When the atoms are exactly the M-point grid (to a few ulps) the sum is
    an inverse DFT and ``X_{t+M} = (-1)^M X_t`` holds exactly; any other
    support takes the dense phase sum (:func:`~opspectra.bochner.fourier_sum`).
    """
    if period < 1:
        raise DimensionError("period must be positive")
    values = np.moveaxis(fourier_sum(w.freqs, w.samples, period), 0, 1)
    return ProcessSample(dim=w.dim, period=period, values=values)


def empirical_gramian(u, v) -> np.ndarray:
    """Sample covariance operator between two ensembles of vectors.

    ``u`` and ``v`` are (R, d) arrays over the same R realizations; the
    estimate is the mean of outer products minus the outer product of the
    means.  ``empirical_gramian(u, u)`` is Hermitian by construction.
    """
    u = np.asarray(u, dtype=np.complex128)
    v = np.asarray(v, dtype=np.complex128)
    if u.ndim != 2 or v.ndim != 2:
        raise DimensionError("ensembles must be 2-d arrays (R, dim)")
    if u.shape[0] != v.shape[0]:
        raise SampleSizeError("ensembles must have equal size")
    r = u.shape[0]
    if r < 2:
        raise SampleSizeError(f"need at least 2 realizations, got {r}")
    uc = u - u.mean(axis=0)
    vc = v - v.mean(axis=0)
    return (uc.T @ vc.conj()) / r


@dataclass(frozen=True)
class IncrementPath:
    """Orthogonal-increment path of a sampled measure.

    Stores the per-breakpoint jumps losslessly; the cumulative values
    ``Z_lambda = W((-pi, lambda])`` are derived on demand, so converting to
    and from a measure realization is exact.
    """

    dim: int
    breakpoints: np.ndarray
    increments: np.ndarray

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=np.float64).ravel()
        inc = np.asarray(self.increments, dtype=np.complex128)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "increments", inc)
        if np.any(np.diff(bp) <= 0):
            raise DimensionError("breakpoints must be strictly increasing")
        if inc.ndim != 3 or inc.shape[0] != bp.size or inc.shape[2] != self.dim:
            raise DimensionError("increments must have shape (breakpoints, R, dim)")

    @classmethod
    def from_cumulative(cls, dim: int, breakpoints, cumulative) -> "IncrementPath":
        """Build from cumulative values ``Z_lambda`` sampled at breakpoints."""
        cum = np.asarray(cumulative, dtype=np.complex128)
        inc = np.diff(cum, axis=0, prepend=np.zeros_like(cum[:1]))
        return cls(dim=dim, breakpoints=breakpoints, increments=inc)

    def cumulative(self) -> np.ndarray:
        """Cumulative values at the breakpoints, shape (breakpoints, R, dim)."""
        return np.cumsum(self.increments, axis=0)

    def value_at(self, lam: float) -> np.ndarray:
        """Evaluate ``Z_lambda`` (zero below the first breakpoint)."""
        k = int(np.searchsorted(self.breakpoints, lam, side="right"))
        if k == 0:
            return np.zeros(self.increments.shape[1:], dtype=np.complex128)
        return self.increments[:k].sum(axis=0)


def to_increment_path(w: RandomMeasure) -> IncrementPath:
    """View a sampled measure as its orthogonal-increment path."""
    return IncrementPath(dim=w.dim, breakpoints=w.freqs, increments=w.samples)


def from_increment_path(path: IncrementPath, intensity: AtomicTracePovm) -> RandomMeasure:
    """Recover the per-atom samples of a path, given the generating measure.

    Breakpoints must align with the intensity atoms; the round trip with
    :func:`to_increment_path` is exact.
    """
    require_aligned(path.breakpoints, intensity.freqs)
    return RandomMeasure(
        dim=path.dim,
        freqs=intensity.freqs,
        samples=path.increments,
        intensity=intensity,
    )
