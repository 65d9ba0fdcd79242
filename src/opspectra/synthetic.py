"""Random and bundled instances used by the verification battery and demos."""

from __future__ import annotations

import numpy as np

from .bochner import grid_frequencies
from .povm import AtomicTracePovm
from .transfer import FirFilter, TransferFunction

__all__ = [
    "bundled_example_povm",
    "haar_frame",
    "make_rng",
    "random_complex",
    "random_conditioned_transfer",
    "random_fir",
    "random_frequencies",
    "random_grid_povm",
    "random_povm",
    "random_psd",
    "random_transfer",
]


def make_rng(seed) -> np.random.Generator:
    """Counter-based generator for reproducible instance construction."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def random_complex(rng: np.random.Generator, shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * np.sqrt(
        0.5
    )


def random_psd(
    rng: np.random.Generator, dim: int, rank: int | None = None,
    trace: float | None = None,
) -> np.ndarray:
    """Random PSD matrix ``A A^H`` with prescribed rank and optional trace."""
    rank = dim if rank is None else rank
    a = random_complex(rng, (dim, max(rank, 1))) if rank > 0 else np.zeros((dim, 1))
    w = a @ a.conj().T
    w = (w + w.conj().T) / 2.0
    if trace is not None and rank > 0:
        w *= trace / np.trace(w).real
    return w


def random_frequencies(rng: np.random.Generator, n_atoms: int) -> np.ndarray:
    """Strictly increasing frequencies in (-pi, pi] with comfortable gaps."""
    while True:
        f = np.sort(rng.uniform(-np.pi + 1e-6, np.pi, n_atoms))
        if n_atoms == 1 or np.diff(f).min() > 1e-6:
            return f


def random_povm(
    rng: np.random.Generator,
    dim: int,
    n_atoms: int,
    ranks=None,
) -> AtomicTracePovm:
    """Random atomic measure; ``ranks`` optionally fixes per-atom ranks."""
    freqs = random_frequencies(rng, n_atoms)
    if ranks is None:
        ranks = [dim] * n_atoms
    weights = np.stack([random_psd(rng, dim, rank=r) for r in ranks])
    return AtomicTracePovm(dim=dim, freqs=freqs, weights=weights)


def random_grid_povm(rng: np.random.Generator, dim: int, m: int) -> AtomicTracePovm:
    """Random full-rank measure on the uniform M-point grid, each atom's
    trace drawn from ``uniform(0.5, 1.5)``."""
    weights = np.stack(
        [random_psd(rng, dim, trace=float(rng.uniform(0.5, 1.5))) for _ in range(m)]
    )
    return AtomicTracePovm(dim, grid_frequencies(m), weights)


def random_transfer(
    rng: np.random.Generator, in_dim: int, out_dim: int, freqs
) -> TransferFunction:
    freqs = np.asarray(freqs, dtype=np.float64)
    ops = random_complex(rng, (freqs.size, out_dim, in_dim))
    return TransferFunction(in_dim, out_dim, freqs, ops)


def haar_frame(rng: np.random.Generator, dim: int, q: int) -> np.ndarray:
    """Orthonormal q-frame (dim x q) drawn Haar-uniformly via QR."""
    g = random_complex(rng, (dim, q))
    qmat, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return qmat * (d / np.abs(d))


def random_conditioned_transfer(
    rng: np.random.Generator, dim: int, freqs, cond: float = 100.0
) -> TransferFunction:
    """Square transfer function whose atoms have condition number <= cond."""
    freqs = np.asarray(freqs, dtype=np.float64)
    ops = np.empty((freqs.size, dim, dim), dtype=np.complex128)
    for j in range(freqs.size):
        u = haar_frame(rng, dim, dim)
        v = haar_frame(rng, dim, dim)
        log_s = rng.uniform(-np.log(cond), 0.0, dim)
        ops[j] = (u * np.exp(log_s)) @ v.conj().T
    return TransferFunction(dim, dim, freqs, ops)


def random_fir(
    rng: np.random.Generator, in_dim: int, out_dim: int, n_taps: int
) -> FirFilter:
    """FIR filter with ``n_taps`` distinct lags drawn from ``-3..3``."""
    lags = rng.choice(np.arange(-3, 4), size=n_taps, replace=False)
    return FirFilter(
        taps={int(s): random_complex(rng, (out_dim, in_dim)) for s in lags}
    )


def bundled_example_povm() -> AtomicTracePovm:
    """Deterministic showcase measure: dim 3 on the 16-point grid.

    Mixes full-rank, rank-deficient and zero atoms so every code path of
    the verification battery is exercised.
    """
    rng = make_rng(20260809)
    ranks = [3, 3, 1, 3, 2, 3, 3, 0, 3, 1, 3, 3, 2, 3, 3, 3]
    weights = [random_psd(rng, 3, rank=r, trace=float(r)) for r in ranks]
    return AtomicTracePovm(
        dim=3, freqs=grid_frequencies(16), weights=np.stack(weights)
    )
