"""Gaussian orthogonally scattered random measures on an atomic support.

Sampling draws, for every atom, independent circularly-symmetric complex
Gaussian vectors ``Z_j = F_j xi_j`` through its Gram factor, ``F_j F_j^H =
nu_j``, so atoms are mutually uncorrelated and the ensemble covariance of
``Z_j`` converges to ``nu_j``.  Everything downstream is a pure finite sum:

* the stochastic integral ``int Phi dW = sum_j Phi_j Z_j``,
* process synthesis ``X_t = sum_j exp(i lambda_j t) Z_j``,
* the correspondence with orthogonal-increment paths.

Randomness comes from an SFC64 generator with one substream per atom,
seeded from ``(seed, atom index)``; results are therefore independent of
the order in which atoms are processed.  One private generator of row
blocks, the only loop over the atoms, draws their rows: a sampler takes
its ``(n_atoms, R, dim)`` ensemble as one block, and the battery's Monte
Carlo checks (:mod:`opspectra.verify`) read the same rows as consecutive
block measures, never an ensemble, summing uncentred per-row moments,
while :func:`empirical_gramian` centres one whole ensemble.  Atoms are
drawn on the calling thread: the library's only concurrency is the
battery's determinism rerun in a worker interpreter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bochner import fourier_sum
from .errors import (
    AlignmentError,
    DimensionError,
    SampleSizeError,
    _Record,
    require_addressable,
    require_integers,
    require_seed,
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
class RandomMeasure(_Record):
    """Sampled random measure: per-atom complex Gaussian ensembles.

    The support and the space are those of the intensity: ``dim``,
    ``freqs`` and ``n_atoms`` are read from it, and ``samples`` must have
    shape ``(n_atoms, R, dim)``.
    """

    samples: np.ndarray
    intensity: AtomicTracePovm

    def __post_init__(self):
        self._keep("samples", np.complex128, (self.n_atoms, None, self.dim))

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
class ProcessSample(_Record):
    """Ensemble of time series over one period: values of shape (R, M, N)."""

    dim: int
    period: int
    values: np.ndarray

    def __post_init__(self):
        dim, period = require_integers("process dimensions and periods",
                                       self.dim, self.period)
        self._set(dim=dim, period=period)
        vals = self._keep("values", np.complex128, (None, period, dim))
        if not np.isfinite(vals).all():
            raise DimensionError("process values must be finite")

    @property
    def n_realizations(self) -> int:
        return self.values.shape[0]


def _atom_rng(seed: int, atom: int) -> np.random.Generator:
    ss = np.random.SeedSequence(int(seed), spawn_key=(int(atom),))
    return np.random.Generator(np.random.SFC64(ss))


def _kernel(factor: np.ndarray) -> np.ndarray:
    """The real ``(2 k, 2 dim)`` kernel ``K`` with ``[a | b] K = sqrt(1/2) (a
    + i b) F^T`` for the ``k`` nonzero columns ``F`` of an atom's factor: the
    float64 view of ``[S; i S]``, ``S = sqrt(1/2) F^T``, whose columns
    alternate real and imaginary parts as the float64 view of samples does."""
    s = factor[:, factor.any(axis=0)].T * np.sqrt(0.5)
    return np.concatenate([s, 1j * s]).view(np.float64)


def _draw_atom(
    out: np.ndarray, normals: np.ndarray, kernel: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Write an atom's next rows into ``out``, an ``(R, dim)`` complex array,
    and return it.

    ``rng``, the atom's substream (:func:`_atom_rng`), fills ``normals``, an
    ``(R, 2 k)`` float array for the atom's ``(2 k, 2 dim)`` kernel
    (:func:`_kernel`), with its next standard normals, so consecutive calls
    draw consecutive row blocks, and one real product with the kernel
    writes them into ``out``.  Both buffers are the caller's, so a caller
    that reuses them allocates nothing per atom.
    """
    rng.standard_normal(out=normals)
    np.matmul(normals, kernel, out=out.view(np.float64))
    return out


def _sample_blocks(nu: AtomicTracePovm, n_realizations: int, seed: int, rows: int,
                   atoms=None):
    """The one loop over atoms: the rows ``sample_gaussian_measure(nu,
    n_realizations, seed)`` draws, as fresh ``(n_atoms, rows, dim)`` blocks
    (the last may be shorter).  Each atom of ``atoms`` (all by default, in
    any order) writes its rows by :func:`_draw_atom` through one normals
    store of 2 floats per factor column and row; rows of other atoms are
    unset.  Kernels and generators are built in turn, one held at a time,
    for one block, and all at once and kept for more; the previous block
    is released before the next is allocated, so one block is held,
    whatever ``n_realizations``."""
    factors = nu.gram_factors()
    streams = ((j, _kernel(factors[j]), _atom_rng(seed, j))
               for j in (range(nu.n_atoms) if atoms is None else atoms))
    if rows < n_realizations:
        streams = list(streams)
    store = np.empty(min(rows, n_realizations) * 2 * factors.shape[2])
    for start in range(0, n_realizations, rows):
        n = min(rows, n_realizations - start)
        block = None  # the previous block goes before the next is allocated
        block = np.empty((nu.n_atoms, n, nu.dim), np.complex128)
        for j, k, rng in streams:
            _draw_atom(block[j], store[: n * len(k)].reshape(n, len(k)), k, rng)
            del k, rng  # released before the next atom's are built
        yield block


def _require_draw(nu: AtomicTracePovm, n_realizations, seed) -> int:
    """``n_realizations`` as an ``int``, once ``seed`` obeys
    :func:`~opspectra.errors.require_seed` and ``R`` is a positive integer
    that addresses ``(n_atoms, R, dim)`` samples."""
    (n,) = require_integers("realization counts", n_realizations)
    require_seed(seed)
    if n < 1:
        raise SampleSizeError("need at least one realization")
    require_addressable(f"{n} realizations", nu.n_atoms, n, nu.dim)
    return n


def sample_gaussian_measure(
    nu: AtomicTracePovm, n_realizations: int, seed: int
) -> RandomMeasure:
    """Draw a Gaussian random measure ensemble with intensity ``nu``.

    For every atom, ``Z_j = F_j xi_j`` with ``F_j = nu.gram_factors()[j]``
    and ``xi_j`` standard circularly-symmetric complex Gaussian (real and
    imaginary parts i.i.d. N(0, 1/2)).  Atoms and realizations are
    independent, and the output is a deterministic function of ``seed``
    alone: each atom has its own substream, so any processing order gives
    identical results.  Atoms are drawn on the calling thread.
    ``n_realizations`` and ``seed`` must be integers.
    """
    n = _require_draw(nu, n_realizations, seed)
    out = next(_sample_blocks(nu, n, seed, n))
    out.flags.writeable = False
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
    mirror atoms are complex conjugates and a self-paired atom keeps
    ``sqrt(2) Re`` of its draw ``F_j xi_j``, real Gaussian with covariance
    ``Re(F_j F_j^H) = nu_j``, so the synthesised process is real-valued.
    The atom covariances still match the intensity, but the self-paired
    atoms are not circularly symmetric; this is a modeling extension for
    real-valued output.  Every atom but a mirror draws the sample
    :func:`sample_gaussian_measure` draws for it, and ``n_realizations``
    and ``seed`` obey the same integer rule.
    """
    n = _require_draw(nu, n_realizations, seed)
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
    for j, k in enumerate(partner):
        if k == j and np.abs(nu.weights[j].imag).max() > floor:
            raise DimensionError(
                f"self-paired atom {j} needs a real weight for real output"
            )
        if k > j and np.abs(nu.weights[k] - nu.weights[j].T).max() > floor:
            raise DimensionError(f"atoms {j} and {k} are not transposes of each other")
    out = next(_sample_blocks(nu, n, seed, n, atoms[partner >= atoms]))
    for j, k in enumerate(partner):
        if k > j:
            np.conjugate(out[j], out=out[k])
        elif k == j:
            out[j] = np.sqrt(2.0) * out[j].real
    out.flags.writeable = False
    return RandomMeasure(samples=out, intensity=nu)


def spectral_integral(phi: TransferFunction, w: RandomMeasure) -> np.ndarray:
    """Stochastic integral ``int Phi dW`` per realization, shape (R, out).

    The per-atom terms ``Phi_j Z_j`` are added to zeros in atom order, as
    numpy sums :meth:`TransferFunction.apply` over the atoms, to the bit and
    the sign of zero; only the sum and one term are held, never the
    ``(n_atoms, R, out)`` stack.  A sample outside the domain of a partial
    atom raises, naming the first such atom.
    """
    require_integrable(phi, w.intensity)
    z, ops = w.samples, phi.ops
    phi.require_domain(z)
    out = np.zeros((w.n_realizations, phi.out_dim), dtype=np.complex128)
    term = np.empty_like(out)
    for j in range(phi.n_atoms):
        out += np.matmul(z[j], ops[j].T, out=term)
    return out


def synthesize_process(w: RandomMeasure, period: int) -> ProcessSample:
    """Synthesise ``X_t = sum_j exp(i lambda_j t) Z_j`` for t = 0..period-1.

    When the atoms are exactly the M-point grid (to a few ulps) the sum is
    an inverse DFT and ``X_{t+M} = (-1)^M X_t`` holds exactly; any other
    support takes the dense phase sum (:func:`~opspectra.bochner.fourier_sum`).
    """
    require_integers("periods", period)
    if period < 1:
        raise DimensionError("period must be positive")
    values = np.moveaxis(fourier_sum(w.freqs, w.samples, period), 0, 1)
    return ProcessSample(dim=w.dim, period=period, values=values)


def empirical_gramian(u, v) -> np.ndarray:
    """Sample covariance operator between two ensembles of vectors.

    ``u`` and ``v`` are (R, d) arrays over the same R realizations; the
    estimate is ``(u - mean u)^T conj(v - mean v) / R``, the mean of the
    outer products of the centred rows.  ``empirical_gramian(u, u)`` is
    Hermitian by construction.
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
    return (u - u.mean(axis=0)).T @ (v - v.mean(axis=0)).conj() / r


@dataclass(frozen=True, eq=False)
class IncrementPath(_Record):
    """Orthogonal-increment path of a sampled measure.

    Stores the per-breakpoint jumps losslessly; the cumulative values
    ``Z_lambda = W((-pi, lambda])`` are derived on demand, so converting to
    and from a measure realization is exact.
    """

    dim: int
    breakpoints: np.ndarray
    increments: np.ndarray

    def __post_init__(self):
        (dim,) = require_integers("path dimensions", self.dim)
        bp = require_support(self.breakpoints, "breakpoints")
        self._set(dim=dim, breakpoints=bp)
        self._keep("increments", np.complex128, (bp.size, None, dim))

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
