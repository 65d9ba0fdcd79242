"""Operator-valued transfer functions on an atomic frequency support.

A :class:`TransferFunction` stores one operator per frequency atom, with an
optional Hermitian projector per atom describing a restricted domain (used
for inverses of rank-deficient filters).  A missing ``domains`` array means
every atom is a total operator.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .errors import AlignmentError, DimensionError, _frozen, _Record, require_integers
from .operators import as_operator, hermitian_defects, scaled_norms

FREQ_MERGE_TOL = 1e-12
DOMAIN_TOL = 1e-8
DOMAIN_BLOCK = 16  # atoms per block of the domain test

__all__ = [
    "DOMAIN_TOL",
    "FREQ_MERGE_TOL",
    "FirFilter",
    "TransferFunction",
    "require_aligned",
    "require_support",
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


def require_support(freqs, what: str = "frequencies") -> np.ndarray:
    """A frequency support as a flat float64 array no caller can change
    (:func:`~opspectra.errors._frozen`); raises :class:`DimensionError`
    unless it is finite, inside ``(-pi, pi]`` and strictly increasing.
    Measures, transfer functions and increment paths all take their
    support through this one rule."""
    support = _frozen(np.asarray(freqs, dtype=np.float64).reshape(-1), np.float64)
    # NaN fails both comparisons, so it is refused with the infinities
    if not np.all((support > -np.pi) & (support <= np.pi)):
        raise DimensionError(f"{what} must be finite and lie in (-pi, pi]")
    if np.any(np.diff(support) <= 0):
        raise DimensionError(f"{what} must be strictly increasing")
    return support


def _check_projectors(d: np.ndarray) -> None:
    # The spectral bound is tol * max(||d_j||_2, 1) >= tol and the Frobenius
    # norm dominates the spectral one, so an atom whose two defects are
    # within tol in Frobenius norm passes both tests; only the others take
    # the eigenvalue and SVD-norm tests.
    tol = 1e-10
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


@dataclass(frozen=True, eq=False)
class TransferFunction(_Record):
    """Per-atom operator table ``op_j`` with optional domain projectors."""

    in_dim: int
    out_dim: int
    freqs: np.ndarray
    ops: np.ndarray
    domains: np.ndarray | None = None

    def __post_init__(self):
        dims = require_integers("transfer dimensions", self.in_dim, self.out_dim)
        freqs = require_support(self.freqs)
        self._set(in_dim=dims[0], out_dim=dims[1], freqs=freqs)
        n = freqs.size
        ops = self._keep("ops", np.complex128, (n, self.out_dim, self.in_dim))
        if not np.isfinite(ops).all():
            raise DimensionError("transfer operators must be finite")
        if self.domains is not None:
            doms = self._keep("domains", np.complex128, (n, self.in_dim, self.in_dim))
            _check_projectors(doms)

    @property
    def n_atoms(self) -> int:
        return self.freqs.size

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Apply every atom to its own vectors: ``out[j] = x[j] @ op_j^T``.

        ``x`` has shape ``(n_atoms, R, in_dim)``.  On partial atoms every
        argument must lie in the domain: one test, stacked over blocks of
        atoms, compares each defect ``x - D_j x`` with ``DOMAIN_TOL`` times
        ``x``, both norms taken relative to the largest entry of ``x`` so that
        the test decides the same at every scale, and a failure raises
        :class:`DimensionError` naming the first failing atom rather than
        silently projecting.
        """
        x = np.asarray(x, dtype=np.complex128)
        self.require_domain(x)
        return x @ self.ops.swapaxes(1, 2)

    def require_domain(self, x: np.ndarray) -> None:
        """The checks of :meth:`apply` on a complex array ``x``: its shape,
        then the domain test on partial atoms, over blocks of
        :data:`DOMAIN_BLOCK` atoms."""
        if x.ndim != 3 or x.shape[0] != self.n_atoms or x.shape[2] != self.in_dim:
            raise DimensionError(
                f"samples of shape ({self.n_atoms}, R, {self.in_dim}) expected,"
                f" got {x.shape}"
            )
        if self.domains is None:
            return
        # blocks of atoms in order, so the transient is one block's, not M's
        for start in range(0, self.n_atoms, DOMAIN_BLOCK):
            xb = x[start : start + DOMAIN_BLOCK]
            defect = xb @ self.domains[start : start + DOMAIN_BLOCK].swapaxes(1, 2)
            np.subtract(xb, defect, out=defect)
            sizes, misses = scaled_norms(xb, defect)
            bad = misses > DOMAIN_TOL * sizes
            if bad.any():
                j = start + int(np.argmax(bad.any(axis=1)))
                raise DimensionError(
                    f"argument outside the domain of the partial operator at atom {j}"
                )


@dataclass(frozen=True, eq=False)
class FirFilter(_Record):
    """Finite impulse response filter: a finite map lag -> operator, held
    as a read-only mapping of read-only operators."""

    taps: dict

    def __post_init__(self):
        require_integers("tap lags", *self.taps)
        taps = {int(s): as_operator(_frozen(op, np.complex128))
                for s, op in self.taps.items()}
        if not taps:
            raise DimensionError("a FIR filter needs at least one tap")
        if len({op.shape for op in taps.values()}) > 1:
            raise DimensionError("all taps must share the same shape")
        self._set(taps=MappingProxyType(taps))

    def __reduce__(self):  # a mapping proxy does not pickle: rebuilt from a dict
        return type(self), (dict(self.taps),)

    @property
    def out_dim(self) -> int:
        return next(iter(self.taps.values())).shape[0]

    @property
    def in_dim(self) -> int:
        return next(iter(self.taps.values())).shape[1]
