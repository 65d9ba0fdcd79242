"""Dense complex-operator algebra.

Operators between finite-dimensional complex Hilbert spaces are plain 2-d
``numpy`` arrays of ``complex128``.  This module collects the primitives the
rest of the library is built on: outer products, positivity checks,
deterministic Hermitian eigendecompositions and the one rank rule that
cuts their eigenvalues.

The spectral conventions are written once, over ``(n, d, d)`` stacks such
as the atom weights of a measure; single-operator functions are the n = 1
case.  Tolerances are relative to each operator's operator or trace norm,
floored at ``ABS_FLOOR`` times the largest trace norm of the stack.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError

ABS_FLOOR = 1e-14

__all__ = [
    "ABS_FLOOR",
    "as_operator",
    "hermitian_defects",
    "outer",
    "psd_check",
    "psd_mask",
    "scaled_norms",
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


def outer(x, y) -> np.ndarray:
    """Outer product ``x (x) y`` acting as ``z -> <z, y> x``.

    Equivalently the matrix ``x y^H``.
    """
    xv = np.ravel(np.asarray(x, dtype=np.complex128))
    yv = np.ravel(np.asarray(y, dtype=np.complex128))
    return np.outer(xv, yv.conj())


def _adjoints(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


def _hermitian_parts(a: np.ndarray) -> np.ndarray:
    # halved before the sum, which then cannot overflow for finite entries
    half = a / 2.0
    half += _adjoints(half)
    return half


def hermitian_defects(a: np.ndarray) -> np.ndarray:
    """Operator norms ``||a_j - a_j^H||`` of a square stack, read off the
    eigenvalues of the Hermitian ``i (a_j - a_j^H)``."""
    diff = 1j * (a - _adjoints(a))
    return np.abs(np.linalg.eigvalsh(diff)).max(axis=-1, initial=0.0)


def _squared_norms(a: np.ndarray) -> np.ndarray:
    # squared Frobenius norms of a contiguous (n, p, q) stack, with no
    # temporary stack
    v = a.reshape(a.shape[0], -1).view(np.float64)
    return np.einsum("ij,ij->i", v, v)


def scaled_norms(ref: np.ndarray, defect: np.ndarray, axis=-1) -> tuple:
    """Euclidean norms over ``axis`` of ``ref`` and of ``defect`` (no larger
    than ``ref``), both divided by the largest entry modulus of ``ref``
    over that axis (1 where ``ref`` vanishes).

    No square overflows or underflows, whatever the scale of ``ref``, so a
    test that compares the two norms decides the same at every scale.
    """
    mods = np.abs(ref)
    scale = mods.max(axis=axis, keepdims=True)
    scale[scale == 0.0] = 1.0

    def norms(m):
        m /= scale
        np.square(m, out=m)
        return np.sqrt(m.sum(axis=axis))

    return norms(mods), norms(np.abs(defect))


def _certified(a: np.ndarray, tol: float) -> bool:
    """True when exact bounds clear every operator of both eigenvalue
    tests of :func:`psd_mask`, without an eigenvalue.

    The stack is first rescaled by an exact power of two, so its largest
    entry lies in ``[1/2, 1)`` whatever the scale of the measure: no square
    below overflows, and the rescale changes no decision.  With ``h_j`` the
    Hermitian parts and ``f_j = ||h_j||_F``, the bounds are:

    * ``f_j <= ||h_j||_1`` (trace norm) and ``f_j <= sqrt(d) ||h_j||_2``,
      so ``t_j = max(tol f_j, ABS_FLOOR max_k f_k)`` is at most the
      positivity threshold and the Hermitian tolerance with ``f_j /
      sqrt(d)`` in place of ``f_j`` is at most the Hermitian one; the
      defect passes when its Frobenius norm (at least its operator norm)
      is below that.
    * A computed Cholesky factor ``R_j`` of ``h_j + (t_j / 2) I`` is exact
      for a matrix within ``4 (d + 2) eps ||R_j||_F^2`` of it (the
      backward error of Cholesky, ``|dA| <= gamma_{d+1} |R^H| |R|``, with
      room for complex arithmetic and for forming ``h_j``); below
      ``t_j / 2`` it puts every eigenvalue of ``h_j`` above ``-t_j``.
    """
    n, d = a.shape[0], a.shape[-1]
    parts = a.view(np.float64)
    top = max(parts.max(initial=0.0), -parts.min(initial=0.0))
    if top == 0.0:
        return False
    # ldexp takes the exponent whole, so subnormal stacks do not overflow
    # a scale factor 2**-k
    a = np.ldexp(parts, -np.frexp(top)[1]).view(np.complex128)
    h = a.conj().swapaxes(-1, -2).copy()
    h += a
    h /= 2.0
    # a - h is half the defect a - a^H; the stacks are updated in place to
    # keep the certificate's transient memory at three stacks
    a -= h
    defects = 2.0 * np.sqrt(_squared_norms(a))
    del a
    fro = np.sqrt(_squared_norms(h))
    floor = ABS_FLOOR * fro.max(initial=0.0)
    if np.any(defects > np.maximum(tol * fro / np.sqrt(d), floor)):
        return False
    shift = np.maximum(tol * fro, floor) / 2.0
    h.reshape(n, d * d)[:, :: d + 1] += shift[:, None]
    try:
        r = np.linalg.cholesky(h)
    except np.linalg.LinAlgError:
        return False
    backward = 4.0 * (d + 2) * np.finfo(np.float64).eps * _squared_norms(r)
    return bool(np.all(backward < shift))


def psd_mask(weights, tol: float = 1e-10) -> np.ndarray:
    """Per-operator PSD test of a square ``(n, d, d)`` stack.

    An operator passes when it is Hermitian within ``tol`` times the
    operator norm of its Hermitian part and its smallest eigenvalue is
    above ``-tol`` times its trace norm.  The floor is ``ABS_FLOOR`` times
    the largest trace norm in the stack, so scaling the stack leaves the
    mask unchanged.

    A certificate decides first, with no eigenvalue: a Frobenius bound
    clears the Hermitian defects and one stacked Cholesky of the shifted
    Hermitian parts clears positivity (see :func:`_certified`).  When it
    does not clear every operator, the eigenvalue tests decide the mask.
    """
    a = np.ascontiguousarray(weights, dtype=np.complex128)
    if not np.isfinite(a).all():
        raise DimensionError("operator entries must be finite")
    if _certified(a, tol):
        return np.ones(a.shape[0], dtype=bool)
    vals = np.linalg.eigvalsh(_hermitian_parts(a))
    trace_norms = np.abs(vals).sum(axis=-1)
    floor = ABS_FLOOR * trace_norms.max(initial=0.0)
    # the Hermitian part's operator norm is at most ||a||_2, without an SVD
    op_norms = np.abs(vals).max(axis=-1, initial=0.0)
    hermitian = hermitian_defects(a) <= np.maximum(tol * op_norms, floor)
    positive = vals.min(axis=-1, initial=0.0) >= -np.maximum(tol * trace_norms, floor)
    return hermitian & positive


def psd_check(p, tol: float = 1e-10) -> bool:
    """Return True iff ``p`` is positive semi-definite within tolerance.

    The single-operator case of :func:`psd_mask`: the floor is relative to
    the operator's own trace norm.
    """
    a = as_operator(p)
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"psd_check needs a square operator, got {a.shape}")
    return bool(psd_mask(a[None], tol)[0])


def _rank_cut(vals: np.ndarray, vecs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The one rank rule on a Hermitian eigensystem in any order: negative
    eigenvalues and any at most ``256 eps`` times the operator's largest
    become exactly zero, so its support is where its eigenvalues are positive."""
    vals = np.clip(vals, 0.0, None)
    # Eigenvalues at round-off level are noise; left in place they would
    # inflate to sqrt scale and pollute the range of a Gram factor.
    top = vals.max(axis=-1, keepdims=True, initial=0.0)
    vals[vals <= 256.0 * np.finfo(np.float64).eps * top] = 0.0
    return vals, vecs


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
