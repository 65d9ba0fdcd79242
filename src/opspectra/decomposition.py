"""Cramer-Karhunen-Loeve decomposition and harmonic functional PCA.

Both are driven by per-atom eigendecompositions of the spectral measure.
All quantities are computed from the eigensystems of the atoms themselves
(base weights folded in), so no user-visible choice of dominating measure
appears: scaling an atom by ``w`` scales its eigenvalues by ``w`` and the
eigenvectors not at all.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .filtering import apply_filter
from .povm import AtomicTracePovm, require_integrable
from .random_measure import RandomMeasure
from .transfer import TransferFunction

__all__ = [
    "CklSystem",
    "ckl_completeness_residual",
    "ckl_component",
    "ckl_decompose",
    "ckl_scalar_component",
    "component_transfer",
    "hfpca_error",
    "hfpca_optimal_error",
    "hfpca_projector",
    "hfpca_report",
    "hfpca_tie_warnings",
    "normalize_ranks",
    "scalar_component_transfer",
]


@dataclass(frozen=True)
class CklSystem:
    """Per-atom eigensystems of the spectral measure densities.

    ``eigenvalues[j]`` holds the non-increasing spectrum of the unit-trace
    density of atom ``j`` and ``eigenvectors[j]`` the matching orthonormal
    basis (columns).  ``ranks[j]`` counts the numerically positive
    eigenvalues, so the sum of the first ``ranks[j]`` eigenprojectors is
    the range projector of the atom.
    """

    povm: AtomicTracePovm
    base_weights: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    ranks: np.ndarray

    @property
    def dim(self) -> int:
        return self.povm.dim

    @property
    def n_atoms(self) -> int:
        return self.povm.n_atoms

    def range_projectors(self) -> np.ndarray:
        """Per-atom projector onto the range of the atom weight."""
        return _top_projectors(self.eigenvectors, self.ranks)


def _top_projectors(eigenvectors: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """Per-atom sum of the first ``ranks[j]`` eigenprojectors."""
    keep = np.arange(eigenvectors.shape[-1]) < ranks[:, None]
    v = eigenvectors * keep[:, None, :]
    return v @ v.conj().swapaxes(-1, -2)


def ckl_decompose(nu: AtomicTracePovm, rank_tol: float = 1e-12) -> CklSystem:
    """Eigensystems of the default density (weight over trace) of every
    atom; zero-trace atoms get zero eigenvalues and rank zero.

    The eigenvalues are those of the measure's cached
    :meth:`~opspectra.povm.AtomicTracePovm.eigensystem` divided by the
    atom traces, and ``eigenvectors`` *is* its read-only eigenvector
    stack, shared with the measure (copy it before writing): decomposing a
    measure takes no eigendecomposition once it has been sampled or
    inverted against, and none the second time.
    """
    traces = nu.traces()
    vals, eigenvectors = nu.eigensystem()
    eigenvalues = np.divide(
        vals, traces[:, None], out=np.zeros_like(vals), where=traces[:, None] > 0
    )
    top = eigenvalues.max(axis=1, keepdims=True, initial=0.0)
    ranks = np.where(top[:, 0] > 0, np.sum(eigenvalues > rank_tol * top, axis=1), 0)
    return CklSystem(
        povm=nu,
        base_weights=traces,
        eigenvalues=eigenvalues,
        eigenvectors=eigenvectors,
        ranks=ranks,
    )


def component_transfer(sys: CklSystem, n: int) -> TransferFunction:
    """Rank-one component filter ``lambda_j -> phi_n(j) (x) phi_n(j)``."""
    if not 0 <= n < sys.dim:
        raise IndexError(f"component index {n} out of range for dim {sys.dim}")
    vecs = sys.eigenvectors[:, :, n]
    ops = vecs[:, :, None] * vecs.conj()[:, None, :]
    return TransferFunction(sys.dim, sys.dim, sys.povm.freqs, ops)


def scalar_component_transfer(sys: CklSystem, n: int) -> TransferFunction:
    """Row-functional filter ``lambda_j -> phi_n(j)^H`` with scalar output."""
    if not 0 <= n < sys.dim:
        raise IndexError(f"component index {n} out of range for dim {sys.dim}")
    ops = sys.eigenvectors[:, :, n].conj()[:, None, :]
    return TransferFunction(sys.dim, 1, sys.povm.freqs, ops)


def ckl_component(w: RandomMeasure, sys: CklSystem, n: int) -> RandomMeasure:
    """The n-th decomposition component of a sampled measure.

    Components over all n sum back to the measure on supported samples, and
    distinct components are uncorrelated.
    """
    return apply_filter(component_transfer(sys, n), w)


def ckl_scalar_component(w: RandomMeasure, sys: CklSystem, n: int) -> RandomMeasure:
    """The n-th scalar (univariate) component of a sampled measure."""
    return apply_filter(scalar_component_transfer(sys, n), w)


def ckl_completeness_residual(sys: CklSystem) -> float:
    """Norm ``|| sum_n phi_n (x) phi_n - Id ||_nu`` of the completeness defect.

    The sum runs over the numerically positive components, i.e. the
    per-atom range projectors; the residual vanishes although the sum can
    differ from the identity pointwise on rank-deficient atoms.
    """
    massive = sys.base_weights > 0
    eye = np.eye(sys.dim, dtype=np.complex128)
    defect = (sys.range_projectors()[massive] - eye) @ sys.povm.gram_factors()[massive]
    return float(np.linalg.norm(defect))


def normalize_ranks(q, n_atoms: int, dim: int) -> np.ndarray:
    """Per-atom target ranks: positive integers clamped to ``dim``."""
    arr = np.asarray(q, dtype=np.int64)
    if arr.ndim == 0:
        arr = np.full(n_atoms, int(arr))
    if arr.shape != (n_atoms,):
        raise DimensionError(f"expected {n_atoms} ranks, got shape {arr.shape}")
    if np.any(arr < 1):
        raise DimensionError("target ranks must be at least 1")
    return np.minimum(arr, dim)


def hfpca_projector(sys: CklSystem, q) -> TransferFunction:
    """Optimal rank-q projector family: top eigenprojectors per atom."""
    ranks = normalize_ranks(q, sys.n_atoms, sys.dim)
    ops = _top_projectors(sys.eigenvectors, ranks)
    return TransferFunction(sys.dim, sys.dim, sys.povm.freqs, ops)


def hfpca_tie_warnings(sys: CklSystem, q, rel_tol: float = 1e-9) -> list:
    """Atoms where an eigenvalue tie straddles the rank cut.

    There the projector is well defined only up to a choice inside the tied
    eigenspace; the achieved error is unaffected.
    """
    ranks = normalize_ranks(q, sys.n_atoms, sys.dim)
    vals = sys.eigenvalues
    # neighbours at the cut: eigenvalues k - 1 and k of each atom (ranks
    # are at least 1; atoms with k = dim have no cut and are masked below)
    cut = np.minimum(ranks, sys.dim - 1)[:, None]
    gap = (np.take_along_axis(vals, np.maximum(cut - 1, 0), 1)
           - np.take_along_axis(vals, cut, 1))[:, 0]
    top = np.maximum(vals.max(axis=1, initial=0.0), 1e-300)
    tied = (ranks < sys.dim) & (gap <= rel_tol * top)
    return [
        {"atom": int(j), "freq": float(sys.povm.freqs[j]), "rank": int(ranks[j]),
         "tied_value": float(vals[j, ranks[j]])}
        for j in np.flatnonzero(tied)
    ]


def hfpca_error(nu: AtomicTracePovm, theta: TransferFunction) -> float:
    """Mean-square reconstruction error of the filter ``theta``.

    Equals ``sum_j ||(I - Theta_j) F_j||_F^2 = sum_j tr((I - Theta_j) nu_j
    (I - Theta_j)^H)`` for the Gram factors ``F_j`` of the measure, the
    exact value of ``E || X_t - [filtered X]_t ||^2`` for every t.
    """
    require_integrable(theta, nu, label="projector family")
    if theta.out_dim != nu.dim:
        raise DimensionError("projector family must map the space to itself")
    factors = nu.gram_factors()
    residual = factors - theta.ops @ factors
    return float(np.vdot(residual, residual).real)


def hfpca_optimal_error(sys: CklSystem, q) -> float:
    """Closed-form minimum ``sum_j sum_{n >= q_j} sigma_n(nu_j)``."""
    ranks = normalize_ranks(q, sys.n_atoms, sys.dim)
    tail = np.arange(sys.dim) >= ranks[:, None]
    # eigenvalues of the atoms themselves: base weights folded back in
    return float((sys.base_weights[:, None] * sys.eigenvalues)[tail].sum())


def hfpca_report(nu: AtomicTracePovm, q, sys: CklSystem | None = None) -> dict:
    """Summary dict: ranks, optimal and achieved errors, tie warnings."""
    if sys is None:
        sys = ckl_decompose(nu)
    ranks = normalize_ranks(q, sys.n_atoms, sys.dim)
    theta = hfpca_projector(sys, ranks)
    return {
        "q": [int(k) for k in ranks],
        "optimal_error": hfpca_optimal_error(sys, ranks),
        "achieved_error": hfpca_error(nu, theta),
        "tie_warnings": hfpca_tie_warnings(sys, ranks),
    }
