"""Operator-valued transfer functions on an atomic frequency support.

A :class:`TransferFunction` stores one operator per frequency atom, with an
optional Hermitian projector per atom describing a restricted domain (used
for inverses of rank-deficient filters).  A missing ``domains`` array means
every atom is a total operator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AlignmentError, DimensionError
from .operators import as_operator, hermitian_defects, scaled_norms

FREQ_MERGE_TOL = 1e-12
DOMAIN_TOL = 1e-8

__all__ = [
    "DOMAIN_TOL",
    "FREQ_MERGE_TOL",
    "FirFilter",
    "TransferFunction",
    "require_aligned",
]


def require_aligned(freqs_a: np.ndarray, freqs_b: np.ndarray) -> None:
    """Raise :class:`AlignmentError` unless two frequency supports coincide.

    The supports must have the same size and agree entrywise within
    ``FREQ_MERGE_TOL``.
    """
    if freqs_a.size != freqs_b.size or np.any(
        np.abs(freqs_a - freqs_b) > FREQ_MERGE_TOL
    ):
        raise AlignmentError("frequency supports do not match")


def _check_projectors(d: np.ndarray, tol: float = 1e-10) -> None:
    # The spectral bound is tol * max(||d_j||_2, 1) >= tol and the Frobenius
    # norm dominates the spectral one, so an atom whose two defects are
    # within tol in Frobenius norm passes both tests; only the others take
    # the eigenvalue and SVD-norm tests.
    square = d @ d
    unsure = (np.linalg.norm(d - d.conj().swapaxes(1, 2), axis=(1, 2)) > tol) | (
        np.linalg.norm(square - d, axis=(1, 2)) > tol
    )
    if not unsure.any():
        return
    d, square = d[unsure], square[unsure]
    bound = tol * np.maximum(np.linalg.norm(d, 2, axis=(1, 2)), 1.0)
    if np.any(hermitian_defects(d) > bound):
        raise DimensionError("domain projector is not Hermitian")
    if np.any(np.linalg.norm(square - d, 2, axis=(1, 2)) > bound):
        raise DimensionError("domain projector is not idempotent")


@dataclass(frozen=True)
class TransferFunction:
    """Per-atom operator table ``op_j`` with optional domain projectors."""

    in_dim: int
    out_dim: int
    freqs: np.ndarray
    ops: np.ndarray
    domains: np.ndarray | None = None

    def __post_init__(self):
        # a private read-only copy of the frequencies; the operator stacks
        # are large and are not copied
        freqs = np.array(self.freqs, dtype=np.float64).ravel()
        freqs.flags.writeable = False
        ops = np.asarray(self.ops, dtype=np.complex128)
        object.__setattr__(self, "freqs", freqs)
        object.__setattr__(self, "ops", ops)
        n = freqs.size
        if ops.shape != (n, self.out_dim, self.in_dim):
            raise DimensionError(
                f"ops must have shape {(n, self.out_dim, self.in_dim)}, got {ops.shape}"
            )
        if not np.isfinite(ops).all():
            raise DimensionError("transfer operators must be finite")
        if self.domains is not None:
            doms = np.asarray(self.domains, dtype=np.complex128)
            object.__setattr__(self, "domains", doms)
            if doms.shape != (n, self.in_dim, self.in_dim):
                raise DimensionError(
                    f"domains must have shape {(n, self.in_dim, self.in_dim)}"
                )
            _check_projectors(doms)

    @property
    def n_atoms(self) -> int:
        return self.freqs.size

    def apply(self, x: np.ndarray, tol: float = DOMAIN_TOL) -> np.ndarray:
        """Apply every atom to its own vectors: ``out[j] = x[j] @ op_j^T``.

        ``x`` has shape ``(n_atoms, R, in_dim)``.  On partial atoms every
        argument must lie in the domain: one stacked test compares each
        defect ``x - D_j x`` with ``tol`` times ``x``, both norms taken
        relative to the largest entry of ``x`` so that the test decides the
        same at every scale, and a failure raises :class:`DimensionError`
        naming the first failing atom rather than silently projecting.
        """
        x = np.asarray(x, dtype=np.complex128)
        if x.ndim != 3 or x.shape[0] != self.n_atoms or x.shape[2] != self.in_dim:
            raise DimensionError(
                f"samples of shape ({self.n_atoms}, R, {self.in_dim}) expected,"
                f" got {x.shape}"
            )
        if self.domains is not None:
            defect = x @ self.domains.swapaxes(1, 2)
            np.subtract(x, defect, out=defect)
            sizes, misses = scaled_norms(x, defect)
            # free the defect before the output is allocated
            del defect
            bad = misses > tol * sizes
            if bad.any():
                j = int(np.argmax(bad.any(axis=1)))
                raise DimensionError(
                    f"argument outside the domain of the partial operator at atom {j}"
                )
        return x @ self.ops.swapaxes(1, 2)

    def premultiply(self, p) -> "TransferFunction":
        """Module action: compose every atom with a fixed operator ``p``."""
        p = as_operator(p)
        if p.shape[1] != self.out_dim:
            raise DimensionError("module action operator has wrong input dimension")
        return TransferFunction(
            in_dim=self.in_dim,
            out_dim=p.shape[0],
            freqs=self.freqs,
            ops=np.einsum("ab,jbc->jac", p, self.ops),
            domains=self.domains,
        )

    def __add__(self, other: "TransferFunction") -> "TransferFunction":
        if not isinstance(other, TransferFunction):
            return NotImplemented
        if (self.in_dim, self.out_dim) != (other.in_dim, other.out_dim):
            raise DimensionError("cannot add transfer functions of different dims")
        require_aligned(self.freqs, other.freqs)
        if self.domains is not None or other.domains is not None:
            raise DimensionError("addition is only defined for total transfer functions")
        return TransferFunction(
            self.in_dim, self.out_dim, self.freqs, self.ops + other.ops
        )

    @classmethod
    def identity(cls, dim: int, freqs) -> "TransferFunction":
        freqs = np.asarray(freqs, dtype=np.float64).ravel()
        ops = np.broadcast_to(
            np.eye(dim, dtype=np.complex128), (freqs.size, dim, dim)
        ).copy()
        return cls(dim, dim, freqs, ops)

    @classmethod
    def constant(cls, op, freqs) -> "TransferFunction":
        op = as_operator(op)
        freqs = np.asarray(freqs, dtype=np.float64).ravel()
        ops = np.broadcast_to(op, (freqs.size,) + op.shape).copy()
        return cls(op.shape[1], op.shape[0], freqs, ops)


@dataclass(frozen=True)
class FirFilter:
    """Finite impulse response filter: a finite map lag -> operator."""

    taps: dict

    def __post_init__(self):
        taps = {}
        shape = None
        for s, op in self.taps.items():
            op = as_operator(op)
            if shape is None:
                shape = op.shape
            elif op.shape != shape:
                raise DimensionError("all taps must share the same shape")
            taps[int(s)] = op
        if not taps:
            raise DimensionError("a FIR filter needs at least one tap")
        object.__setattr__(self, "taps", taps)

    @property
    def out_dim(self) -> int:
        return next(iter(self.taps.values())).shape[0]

    @property
    def in_dim(self) -> int:
        return next(iter(self.taps.values())).shape[1]
