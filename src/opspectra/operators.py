"""Dense complex-operator algebra.

Operators between finite-dimensional complex Hilbert spaces are plain 2-d
``numpy`` arrays of ``complex128``.  This module collects the primitives the
rest of the library is built on: adjoints, outer products, positivity
checks, positive square roots, Schatten norms, deterministic Hermitian
eigendecompositions and pseudoinverses restricted to the range.

The spectral conventions are written once, over ``(n, d, d)`` stacks such
as the atom weights of a measure; single-operator functions are the n = 1
case.  Tolerances are relative to each operator's operator or trace norm,
floored at ``ABS_FLOOR`` times the largest trace norm of the stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, PositivityError, SymmetryError

ABS_FLOOR = 1e-14

__all__ = [
    "ABS_FLOOR",
    "HermitianEigenSystem",
    "adjoint",
    "as_operator",
    "hermitian_defects",
    "hermitian_eig",
    "outer",
    "pinv_on_range",
    "psd_check",
    "psd_mask",
    "psd_roots",
    "psd_sqrt",
    "schatten_norm",
    "sorted_eigh",
]


def as_operator(p) -> np.ndarray:
    """Coerce ``p`` to a finite 2-d complex128 array."""
    a = np.asarray(p, dtype=np.complex128)
    if a.ndim != 2:
        raise DimensionError(f"expected a 2-d operator, got ndim={a.ndim}")
    if not np.isfinite(a).all():
        raise DimensionError("operator entries must be finite")
    return a


def adjoint(p) -> np.ndarray:
    """Conjugate transpose of ``p``."""
    return as_operator(p).conj().T.copy()


def outer(x, y) -> np.ndarray:
    """Outer product ``x (x) y`` acting as ``z -> <z, y> x``.

    Equivalently the matrix ``x y^H``.
    """
    xv = np.ravel(np.asarray(x, dtype=np.complex128))
    yv = np.ravel(np.asarray(y, dtype=np.complex128))
    return np.outer(xv, yv.conj())


def schatten_norm(p, order) -> float:
    """Schatten norm of ``p`` for ``order`` in ``{1, 2, inf}``.

    ``order=1`` is the trace norm (sum of singular values), ``order=2`` the
    Hilbert-Schmidt (Frobenius) norm and ``order=inf`` the operator norm.
    """
    a = as_operator(p)
    if order == 2:
        return float(np.linalg.norm(a))
    s = np.linalg.svd(a, compute_uv=False)
    if order == 1:
        return float(s.sum())
    if order == np.inf:
        return float(s[0]) if s.size else 0.0
    raise ValueError(f"unsupported Schatten order {order!r}")


def _adjoints(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


def _hermitian_parts(a: np.ndarray) -> np.ndarray:
    return (a + _adjoints(a)) / 2.0


def _single(p, name: str) -> np.ndarray:
    a = as_operator(p)
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"{name} needs a square operator, got {a.shape}")
    return a[None]


def hermitian_defects(a: np.ndarray) -> np.ndarray:
    """Operator norms ``||a_j - a_j^H||`` of a square stack, read off the
    eigenvalues of the Hermitian ``i (a_j - a_j^H)``."""
    diff = 1j * (a - _adjoints(a))
    return np.abs(np.linalg.eigvalsh(diff)).max(axis=-1, initial=0.0)


def _spectral_tests(a: np.ndarray, vals: np.ndarray, tol: float):
    # vals are the eigenvalues of the Hermitian parts of the stack a
    trace_norms = np.abs(vals).sum(axis=-1)
    floor = ABS_FLOOR * trace_norms.max(initial=0.0)
    # the Hermitian part's operator norm is at most ||a||_2, without an SVD
    op_norms = np.abs(vals).max(axis=-1, initial=0.0)
    hermitian = hermitian_defects(a) <= np.maximum(tol * op_norms, floor)
    positive = vals.min(axis=-1, initial=0.0) >= -np.maximum(tol * trace_norms, floor)
    return hermitian, positive


def psd_mask(weights, tol: float = 1e-10) -> np.ndarray:
    """Per-operator PSD test of a square ``(n, d, d)`` stack.

    An operator passes when it is Hermitian within ``tol`` times the
    operator norm of its Hermitian part and its smallest eigenvalue is
    above ``-tol`` times its trace norm.  The floor is ``ABS_FLOOR`` times
    the largest trace norm in the stack, so scaling the stack leaves the
    mask unchanged.
    """
    a = np.asarray(weights, dtype=np.complex128)
    if not np.isfinite(a).all():
        raise DimensionError("operator entries must be finite")
    hermitian, positive = _spectral_tests(
        a, np.linalg.eigvalsh(_hermitian_parts(a)), tol
    )
    return hermitian & positive


def psd_check(p, tol: float = 1e-10) -> bool:
    """Return True iff ``p`` is positive semi-definite within tolerance.

    The single-operator case of :func:`psd_mask`: the floor is relative to
    the operator's own trace norm.
    """
    return bool(psd_mask(_single(p, "psd_check"), tol)[0])


def _roots(vals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    vals = np.clip(vals, 0.0, None)
    # Eigenvalues at round-off level are noise; left in place they would
    # inflate to sqrt scale and pollute the range of the root.
    top = vals.max(axis=-1, keepdims=True, initial=0.0)
    vals[vals <= 256.0 * np.finfo(np.float64).eps * top] = 0.0
    root = (vecs * np.sqrt(vals)[..., None, :]) @ _adjoints(vecs)
    return _hermitian_parts(root)


def psd_roots(weights: np.ndarray) -> np.ndarray:
    """Positive square roots of a PSD stack already passed by
    :func:`psd_mask`: negative eigenvalues are clamped to zero."""
    return _roots(*np.linalg.eigh(_hermitian_parts(weights)))


def psd_sqrt(p, tol: float = 1e-10) -> np.ndarray:
    """Positive square root of a PSD operator.

    Eigenvalues in ``[-tol * trace_norm, 0)`` are clamped to zero before
    taking square roots; genuinely negative spectra raise
    :class:`PositivityError`.
    """
    a = _single(p, "psd_sqrt")
    vals, vecs = np.linalg.eigh(_hermitian_parts(a))
    hermitian, positive = _spectral_tests(a, vals, tol)
    if not (hermitian[0] and positive[0]):
        raise PositivityError("operator is not positive semi-definite")
    return _roots(vals, vecs)[0]


@dataclass(frozen=True)
class HermitianEigenSystem:
    """Eigendecomposition of a Hermitian operator.

    ``eigenvalues`` are sorted non-increasing and ``eigenvectors`` holds the
    matching orthonormal eigenvectors as columns.
    """

    dim: int
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.eigenvalues, dtype=np.float64)
        vecs = np.asarray(self.eigenvectors, dtype=np.complex128)
        object.__setattr__(self, "eigenvalues", vals)
        object.__setattr__(self, "eigenvectors", vecs)
        if vecs.shape != (self.dim, self.dim) or vals.shape != (self.dim,):
            raise DimensionError("inconsistent eigensystem shapes")
        if np.any(np.diff(vals) > 0):
            raise ValueError("eigenvalues must be sorted non-increasing")
        gram_defect = np.linalg.norm(
            vecs.conj().T @ vecs - np.eye(self.dim), 2
        )
        if gram_defect > 1e-12:
            raise ValueError("eigenvectors are not orthonormal")

    def reconstruct(self) -> np.ndarray:
        """Assemble ``V diag(vals) V^H``."""
        return (self.eigenvectors * self.eigenvalues) @ self.eigenvectors.conj().T


def _fix_phases(vecs: np.ndarray) -> np.ndarray:
    # Scale each column so its largest-modulus entry (first on ties) is
    # real positive; keeps degenerate eigenvectors reproducible.
    lead_idx = np.argmax(np.abs(vecs), axis=-2)[..., None, :]
    lead = np.take_along_axis(vecs, lead_idx, axis=-2)
    mod = np.abs(lead)
    phase = np.where(mod > 0, lead / np.where(mod > 0, mod, 1.0), 1.0)
    return vecs * phase.conj()


def sorted_eigh(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues ``(n, d)`` and eigenvector columns ``(n, d, d)`` of the
    Hermitian parts of a square stack.

    Eigenvalues come back non-increasing; within exact ties the solver
    order is preserved (stable sort).  Each eigenvector is phase-normalised
    so its largest-modulus entry is real positive.
    """
    vals, vecs = np.linalg.eigh(_hermitian_parts(weights))
    order = np.argsort(-vals, axis=-1, kind="stable")
    vecs = np.take_along_axis(vecs, order[..., None, :], axis=-1)
    return np.take_along_axis(vals, order, axis=-1), _fix_phases(vecs)


def hermitian_eig(p, tol: float = 1e-10) -> HermitianEigenSystem:
    """Deterministic eigendecomposition of a Hermitian operator.

    The single-operator case of :func:`sorted_eigh`; a Hermitian defect
    beyond ``tol`` times the operator norm raises :class:`SymmetryError`.
    """
    a = _single(p, "hermitian_eig")
    vals, vecs = sorted_eigh(a)
    hermitian, _ = _spectral_tests(a, vals, tol)
    if not hermitian[0]:
        raise SymmetryError("operator is not Hermitian within tolerance")
    return HermitianEigenSystem(
        dim=a.shape[1], eigenvalues=vals[0], eigenvectors=vecs[0]
    )


def pinv_on_range(p, rank_tol: float = 1e-12) -> tuple[np.ndarray, np.ndarray]:
    """Moore-Penrose pseudoinverse plus the projector onto the range.

    Singular values at or below ``rank_tol`` times the largest one are
    treated as zero.  Returns ``(pinv, range_projector)`` where
    ``pinv @ p`` projects onto the row space and ``p @ pinv`` equals the
    returned range projector.
    """
    u, s, vh = np.linalg.svd(as_operator(p), full_matrices=False)
    keep = s > rank_tol * s.max(initial=0.0)
    uk = u[:, keep]
    return (vh[keep].conj().T / s[keep]) @ uk.conj().T, uk @ uk.conj().T
