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
independent of the order in which atoms are processed.  One per-atom
routine draws an atom's sample into buffers its caller owns; the samplers
fill the ``(n_atoms, R, dim)`` ensemble with it, and the battery's HFPCA
check (:mod:`opspectra.verify`) streams atoms through it without ever
holding an ensemble.  Atoms are drawn on the calling thread: the
library's only concurrency is the battery's determinism rerun in a worker
interpreter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bochner import fourier_sum
from .errors import (
    AlignmentError,
    DimensionError,
    SampleSizeError,
    require_addressable,
    require_integers,
)
from .povm import AtomicTracePovm, require_integrable
from .transfer import FREQ_MERGE_TOL, TransferFunction, require_aligned, require_support

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


@dataclass(frozen=True, eq=False)
class RandomMeasure:
    """Sampled random measure: per-atom complex Gaussian ensembles.

    The support and the space are those of the intensity: ``dim``,
    ``freqs`` and ``n_atoms`` are read from it, and ``samples`` must have
    shape ``(n_atoms, R, dim)``.
    """

    samples: np.ndarray
    intensity: AtomicTracePovm

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.complex128)
        object.__setattr__(self, "samples", samples)
        n, dim = self.n_atoms, self.dim
        if samples.ndim != 3 or samples.shape[0] != n or samples.shape[2] != dim:
            raise DimensionError(
                f"samples must have shape ({n}, R, {dim}), got {samples.shape}"
            )

    @property
    def dim(self) -> int:
        return self.intensity.dim

    @property
    def freqs(self) -> np.ndarray:
        return self.intensity.freqs

    @property
    def n_atoms(self) -> int:
        return self.intensity.n_atoms

    @property
    def n_realizations(self) -> int:
        return self.samples.shape[1]

    def restrict(self, atom_mask) -> np.ndarray:
        """Evaluate the measure on a union of atoms: sum of their samples."""
        mask = np.asarray(atom_mask, dtype=bool)
        if mask.shape != self.freqs.shape:
            raise DimensionError("atom mask must align with the atoms")
        return self.samples[mask].sum(axis=0)


@dataclass(frozen=True, eq=False)
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


def _real_kernels(roots: np.ndarray) -> np.ndarray:
    """Real ``(2 dim, 2 dim)`` matrices ``K_j`` with ``[a | b] K_j`` equal to
    ``sqrt(1/2) (a + i b) R_j^T``, ``R_j = roots[j]``, in complex layout:
    output columns alternate real and imaginary parts, so the product is
    the float64 view of the complex samples."""
    s = np.swapaxes(roots, 1, 2) * np.sqrt(0.5)
    re_cols = np.concatenate([s.real, -s.imag], axis=1)
    im_cols = np.concatenate([s.imag, s.real], axis=1)
    n, two_d = roots.shape[0], 2 * roots.shape[1]
    return np.stack([re_cols, im_cols], axis=-1).reshape(n, two_d, two_d)


def _draw_atom(
    out: np.ndarray, normals: np.ndarray, kernel: np.ndarray, seed: int, atom: int
) -> None:
    """Write atom ``atom``'s sample into ``out``, an ``(R, dim)`` complex array.

    Atom ``atom``'s Philox substream for ``seed`` fills ``normals``, an
    ``(R, 2 dim)`` float array, with standard normals, and one real product
    with its kernel (:func:`_real_kernels`) writes them into ``out``.  Both
    buffers are the caller's, so a caller that reuses them allocates
    nothing per atom.
    """
    _atom_rng(seed, atom).standard_normal(out=normals)
    np.matmul(normals, kernel, out=out.view(np.float64))


def _draw_atoms(out: np.ndarray, kernels: np.ndarray, atoms, seed: int) -> None:
    """Fill ``out[j]`` for each ``j`` in ``atoms`` by :func:`_draw_atom`,
    in turn on the calling thread, through one normals buffer."""
    normals = np.empty((out.shape[1], 2 * out.shape[2]))
    for j in atoms:
        _draw_atom(out[j], normals, kernels[j], seed, j)


def _sample_buffer(nu: AtomicTracePovm, n_realizations, seed) -> np.ndarray:
    """The empty ``(n_atoms, R, dim)`` samples of a sampler, once ``R`` and
    ``seed`` are integers, ``seed`` is non-negative and ``R`` is positive
    and addressable."""
    require_integers("realization counts and seeds", n_realizations, seed)
    if seed < 0:
        raise DimensionError(f"seed must be non-negative, got {seed}")
    if n_realizations < 1:
        raise SampleSizeError("need at least one realization")
    shape = (nu.n_atoms, int(n_realizations), nu.dim)
    require_addressable(f"{shape[1]} realizations", *shape)
    return np.empty(shape, dtype=np.complex128)


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
    results (``_atom_order`` exists to demonstrate this in tests; it must
    be a permutation of the atom indices, else :class:`DimensionError`).
    Atoms are drawn on the calling thread.  ``n_realizations`` and ``seed``
    must be integers (:func:`~opspectra.errors.require_integers`).
    """
    out = _sample_buffer(nu, n_realizations, seed)
    order = range(nu.n_atoms)
    if _atom_order is not None:
        if sorted(_atom_order) != list(order):
            raise DimensionError(f"atom order must be a permutation of {order}")
        order = _atom_order
    _draw_atoms(out, _real_kernels(nu.sqrt_weights()), order, seed)
    return RandomMeasure(samples=out, intensity=nu)


def sample_real_gaussian_measure(
    nu: AtomicTracePovm, n_realizations: int, seed: int
) -> RandomMeasure:
    """Sample with conjugate-symmetric atom pairing for real synthesis.

    Requires a symmetric support: every atom at ``0 < lambda < pi`` needs a
    mirror atom at ``-lambda`` with the transposed weight, and the weights
    at ``0`` and ``pi`` must be real, both to within ``1e-10`` times the
    largest atom trace.  Mirrors match within ``FREQ_MERGE_TOL`` and must
    pair both ways, else :class:`AlignmentError` is raised.  Samples at
    mirror atoms are complex conjugates and samples at the self-paired
    atoms are real Gaussian, so the synthesised process is real-valued.
    The atom covariances still match the intensity, but the self-paired
    atoms are not circularly symmetric; this is a modeling extension for
    real-valued output.  The leading atom of each pair takes the sample
    :func:`sample_gaussian_measure` draws for it, and ``n_realizations``
    and ``seed`` obey the same integer rule.
    """
    out = _sample_buffer(nu, n_realizations, seed)
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
    atoms = np.arange(freqs.size)
    one_sided = partner[partner] != atoms
    if one_sided.any():
        j = int(np.argmax(one_sided))
        raise AlignmentError(f"atom {j} and mirror {partner[j]} do not pair both ways")
    # relative to the largest trace norm, so scaling nu changes no decision
    floor = 1e-10 * nu.traces().max()
    for j in range(freqs.size):
        k = int(partner[j])
        if k == j and np.abs(nu.weights[j].imag).max() > floor:
            raise DimensionError(
                f"self-paired atom {j} needs a real weight for real output"
            )
        if k > j and np.abs(nu.weights[k] - nu.weights[j].T).max() > floor:
            raise DimensionError(f"atoms {j} and {k} are not transposes of each other")
    roots = nu.sqrt_weights()
    leads = atoms[partner > atoms]
    _draw_atoms(out, _real_kernels(roots), leads, seed)
    for j in leads:
        np.conjugate(out[j], out=out[partner[j]])
    for j in atoms[partner == atoms]:
        out[j] = _atom_rng(seed, j).standard_normal(out.shape[1:]) @ roots[j].real.T
    return RandomMeasure(samples=out, intensity=nu)


def spectral_integral(phi: TransferFunction, w: RandomMeasure) -> np.ndarray:
    """Stochastic integral ``int Phi dW`` per realization, shape (R, out).

    The per-atom terms ``Phi_j Z_j`` are one stacked
    :meth:`TransferFunction.apply`, summed over the atoms; a sample outside
    the domain of a partial atom raises, naming the first such atom.
    """
    require_integrable(phi, w.intensity)
    return phi.apply(w.samples).sum(axis=0)


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


@dataclass(frozen=True, eq=False)
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
        bp = require_support(self.breakpoints, "breakpoints")
        inc = np.asarray(self.increments, dtype=np.complex128)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "increments", inc)
        if inc.ndim != 3 or inc.shape[0] != bp.size or inc.shape[2] != self.dim:
            raise DimensionError("increments must have shape (breakpoints, R, dim)")

    def value_at(self, lam: float) -> np.ndarray:
        """Evaluate ``Z_lambda`` (zero below the first breakpoint); ``lam``
        must lie in ``[-pi, pi]``, else :class:`DimensionError`."""
        # NaN fails both comparisons, so it is refused with the infinities
        if not -np.pi <= lam <= np.pi:
            raise DimensionError(f"lam must be finite and lie in [-pi, pi], got {lam}")
        k = int(np.searchsorted(self.breakpoints, lam, side="right"))
        if k == 0:
            return np.zeros(self.increments.shape[1:], dtype=np.complex128)
        return self.increments[:k].sum(axis=0)


def to_increment_path(w: RandomMeasure) -> IncrementPath:
    """View a sampled measure as its orthogonal-increment path."""
    return IncrementPath(dim=w.dim, breakpoints=w.freqs, increments=w.samples)


def from_increment_path(path: IncrementPath, intensity: AtomicTracePovm) -> RandomMeasure:
    """Recover the per-atom samples of a path, given the generating measure.

    Breakpoints must align with the intensity atoms and the path must live
    in its space; the round trip with :func:`to_increment_path` is exact.
    """
    require_aligned(path.breakpoints, intensity.freqs)
    return RandomMeasure(samples=path.increments, intensity=intensity)
