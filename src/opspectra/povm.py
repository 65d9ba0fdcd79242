"""Atomic trace-class positive operator valued measures on (-pi, pi].

A measure is a finite list of frequency atoms, each carrying a PSD
trace-class weight operator.  Every integral is then a finite sum, which
makes the identities of the operator calculus exactly testable:

* variation measure and Radon-Nikodym densities,
* integrals of scalar and operator-valued functions,
* the Gramian ``<Phi, Psi>_nu`` and its norm,
* square-integrability of (possibly partial) transfer functions.

Absolutely continuous spectra are represented by atoms on a fine uniform
grid with quadrature weights folded into the atom weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AbsoluteContinuityError,
    DimensionError,
    IntegrabilityError,
    PositivityError,
)
from .operators import ABS_FLOOR, psd_mask, scaled_norms, sorted_eigh, sqrt_from_eigh
from .transfer import DOMAIN_TOL, FREQ_MERGE_TOL, TransferFunction, require_aligned

__all__ = [
    "AtomicTracePovm",
    "CheckReport",
    "PovmDensity",
    "gramian_inner",
    "gramian_norm",
    "radon_nikodym",
    "require_integrable",
    "scalar_integral",
    "square_integrability_check",
    "variation_measure",
    "wrap_frequencies",
]


def wrap_frequencies(freqs) -> np.ndarray:
    """Map frequencies into the canonical interval (-pi, pi]."""
    f = np.asarray(freqs, dtype=np.float64)
    r = np.mod(f + np.pi, 2.0 * np.pi)
    r = np.where(r == 0.0, 2.0 * np.pi, r)
    return r - np.pi


@dataclass(frozen=True)
class AtomicTracePovm:
    """Finite atomic trace-class p.o.v.m. with strictly increasing atoms."""

    dim: int
    freqs: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self._store()
        psd = psd_mask(self.weights, 1e-10)
        if not psd.all():
            j = int(np.argmin(psd))
            raise PositivityError(
                f"atom {j} (frequency {self.freqs[j]:+.6f}) weight is not PSD"
            )

    def _store(self, copy: bool = True) -> None:
        # private read-only copies: the cached eigensystem and roots must not
        # go stale and the frequencies must stay strictly increasing
        freqs = np.array(self.freqs, dtype=np.float64).ravel()
        weights = np.array(self.weights, dtype=np.complex128, copy=copy)
        freqs.flags.writeable = False
        weights.flags.writeable = False
        object.__setattr__(self, "freqs", freqs)
        object.__setattr__(self, "weights", weights)
        if freqs.size == 0:
            raise DimensionError("a measure needs at least one atom")
        if weights.shape != (freqs.size, self.dim, self.dim):
            raise DimensionError(
                f"weights must have shape {(freqs.size, self.dim, self.dim)},"
                f" got {weights.shape}"
            )
        if np.any(freqs <= -np.pi) or np.any(freqs > np.pi):
            raise DimensionError("frequencies must lie in (-pi, pi]")
        if np.any(np.diff(freqs) <= 0):
            raise DimensionError("frequencies must be strictly increasing")

    @classmethod
    def _from_factors(cls, dim: int, freqs, factors) -> "AtomicTracePovm":
        """Measure whose weights are ``(B_j B_j^H + h.c.) / 2`` for finite
        factors ``B_j`` of shape ``(dim, k)``: Hermitian and PSD by
        construction, so the PSD test of the constructor is skipped; the
        copies and every other check stay.  The measure keeps ``B`` (not
        copied, made read-only) as its :meth:`gram_factors`."""
        factors = np.asarray(factors, dtype=np.complex128)
        # an overflowing product is reported by the finiteness check below
        with np.errstate(over="ignore", invalid="ignore"):
            weights = factors @ factors.conj().swapaxes(1, 2)
            weights += weights.conj().swapaxes(1, 2)
            weights /= 2.0
        nu = object.__new__(cls)
        for name, value in (("dim", dim), ("freqs", freqs), ("weights", weights)):
            object.__setattr__(nu, name, value)
        nu._store(copy=False)
        if not np.isfinite(nu.weights).all():
            raise DimensionError("operator entries must be finite")
        factors.flags.writeable = False
        object.__setattr__(nu, "_factors", factors)
        return nu

    @classmethod
    def from_atoms(cls, dim: int, freqs, weights) -> "AtomicTracePovm":
        """Build a measure, canonicalising frequencies and merging duplicates.

        Frequencies are wrapped into (-pi, pi]; atoms closer than
        ``FREQ_MERGE_TOL`` are merged by adding their weights.
        """
        freqs = wrap_frequencies(freqs)
        weights = np.asarray(weights, dtype=np.complex128)
        order = np.argsort(freqs, kind="stable")
        freqs, weights = freqs[order], weights[order]
        merged_f, merged_w = [], []
        for f, w in zip(freqs, weights):
            if merged_f and f - merged_f[-1] <= FREQ_MERGE_TOL:
                merged_w[-1] = merged_w[-1] + w
            else:
                merged_f.append(f)
                merged_w.append(w.copy())
        return cls(dim, np.array(merged_f), np.array(merged_w))

    @property
    def n_atoms(self) -> int:
        return self.freqs.size

    def total_mass(self) -> np.ndarray:
        """The operator ``nu((-pi, pi])``, i.e. the sum of all weights."""
        return self.weights.sum(axis=0)

    def traces(self) -> np.ndarray:
        tr = np.trace(self.weights, axis1=1, axis2=2).real
        return np.maximum(tr, 0.0)

    def positive_mass_mask(self) -> np.ndarray:
        """Atoms carrying variation mass; zero-mass atoms are excluded from
        almost-everywhere conditions.

        The floor is relative to the largest atom trace, so the mask does
        not change when the measure is scaled.
        """
        tr = self.traces()
        return tr > ABS_FLOOR * tr.max()

    def _cached(self, name: str, compute):
        value = self.__dict__.get(name)
        if value is None:
            value = compute()
            for a in value if isinstance(value, tuple) else (value,):
                a.flags.writeable = False
            object.__setattr__(self, name, value)
        return value

    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """:func:`~opspectra.operators.sorted_eigh` of the atom weights:
        non-increasing eigenvalues ``(n, dim)`` and phase-fixed eigenvector
        columns ``(n, dim, dim)``.

        This is the measure's only eigendecomposition.  It is computed on
        first use and cached; every call returns the same read-only arrays,
        which stay valid because the measure holds its own read-only copy
        of the weights.  :meth:`sqrt_weights`, the support basis of
        :func:`~opspectra.filtering.invert_transfer` and
        :func:`~opspectra.decomposition.ckl_decompose` all read it.
        """
        return self._cached("_eigensystem", lambda: sorted_eigh(self.weights))

    def sqrt_weights(self) -> np.ndarray:
        """Positive square roots ``nu_j^{1/2}`` of the atom weights, stacked.

        The ``(n, dim, dim)`` stack is built from :meth:`eigensystem` on
        first use (no further eigendecomposition) and cached; every call
        returns the same read-only array.  Only sampling needs these roots
        themselves; norms read any factor, see :meth:`gram_factors`.
        """
        return self._cached("_roots", lambda: sqrt_from_eigh(*self.eigensystem()))

    def gram_factors(self) -> np.ndarray:
        """A read-only stack ``F_j`` with ``F_j F_j^H = nu_j``.

        A filtered measure ``Phi nu Phi^H`` keeps ``Phi_j F_j`` from the
        measure it was built from; any other measure returns
        :meth:`sqrt_weights`.  Since ``||X F_j||_F^2 = tr(X nu_j X^H)`` and
        ``||X F_j||_2^2 = ||X nu_j X^H||_2``, every norm read through a
        factor is the same for any choice of it, so integrability tests,
        HFPCA errors and the CKL residual take no eigendecomposition of a
        filtered measure.
        """
        factors = self.__dict__.get("_factors")
        return self.sqrt_weights() if factors is None else factors


@dataclass(frozen=True)
class PovmDensity:
    """Radon-Nikodym data: scalar base weights and per-atom PSD densities."""

    base_weights: np.ndarray
    densities: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "base_weights", np.asarray(self.base_weights, dtype=np.float64)
        )
        object.__setattr__(
            self, "densities", np.asarray(self.densities, dtype=np.complex128)
        )

    def reconstruct(self) -> np.ndarray:
        """Per-atom weights ``w_j * g_j``."""
        return self.base_weights[:, None, None] * self.densities


def variation_measure(nu: AtomicTracePovm) -> np.ndarray:
    """Per-atom variation masses ``trace(nu_j)``.

    Zero-trace atoms are retained; use ``nu.positive_mass_mask()`` to flag
    them.
    """
    return nu.traces()


def radon_nikodym(nu: AtomicTracePovm, mu=None) -> PovmDensity:
    """Density of the measure against ``mu`` (default: its variation).

    ``mu`` is given by its per-atom masses and must dominate: a zero mass is
    only allowed where the atom itself carries no mass.  With the default
    choice the densities have unit trace on atoms of positive mass.
    """
    traces = nu.traces()
    if mu is None:
        w = traces.copy()
    else:
        w = np.asarray(mu, dtype=np.float64).ravel()
        if w.shape != traces.shape:
            raise DimensionError("dominating weights must align with the atoms")
        if np.any(w < 0):
            raise AbsoluteContinuityError("dominating weights must be non-negative")
        undominated = (w <= 0) & nu.positive_mass_mask()
        if np.any(undominated):
            j = int(np.argmax(undominated))
            raise AbsoluteContinuityError(
                f"atom {j} has positive mass but zero dominating weight"
            )
    densities = np.divide(
        nu.weights, w[:, None, None],
        out=np.zeros_like(nu.weights), where=w[:, None, None] > 0,
    )
    return PovmDensity(base_weights=w, densities=densities)


def scalar_integral(nu: AtomicTracePovm, f) -> np.ndarray:
    """Integral of a scalar function ``sum_j f_j nu_j``."""
    fv = np.asarray(f, dtype=np.complex128).ravel()
    if fv.shape != nu.freqs.shape:
        raise DimensionError("scalar function values must align with the atoms")
    if not np.isfinite(fv).all():
        raise DimensionError("scalar function values must be finite")
    return np.einsum("j,jmn->mn", fv, nu.weights)


@dataclass(frozen=True)
class CheckReport:
    """Boolean outcome plus a per-atom record of a measure-wide check."""

    ok: bool
    entries: list = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.ok

    def failures(self) -> list:
        return [e for e in self.entries if not e["passed"]]


def _range_defects(phi: TransferFunction, nu: AtomicTracePovm):
    """The containment data shared by the integrability check and guard.

    Checks alignment and dimensions, then returns the positive-mass mask
    and, for a partial ``phi``, the stacks ``(I - D_j) F_j`` and ``F_j``
    for the measure's :meth:`~AtomicTracePovm.gram_factors` ``F`` (both
    ``None`` for a total ``phi``).
    """
    require_aligned(phi.freqs, nu.freqs)
    if phi.in_dim != nu.dim:
        raise DimensionError(
            f"transfer input dim {phi.in_dim} does not match measure dim {nu.dim}"
        )
    mask = nu.positive_mass_mask()
    if phi.domains is None:
        return mask, None, None
    factors = nu.gram_factors()
    defects = phi.domains @ factors
    np.subtract(factors, defects, out=defects)
    return mask, defects, factors


def _containment_report(nu, mask, defects, factors, tol) -> CheckReport:
    residuals = np.zeros(nu.n_atoms)
    reason = "total operator"
    if defects is not None:
        np.divide(np.linalg.norm(defects, 2, axis=(1, 2)),
                  np.linalg.norm(factors, 2, axis=(1, 2)), out=residuals, where=mask)
        reason = "range containment"
    entries = [
        {"atom": j, "freq": float(nu.freqs[j]),
         "passed": bool(residuals[j] <= tol), "residual": float(residuals[j]),
         "reason": reason if mask[j] else "zero mass"}
        for j in range(nu.n_atoms)
    ]
    return CheckReport(ok=all(e["passed"] for e in entries), entries=entries)


def square_integrability_check(
    phi: TransferFunction, nu: AtomicTracePovm, tol: float = DOMAIN_TOL
) -> CheckReport:
    """Square integrability of ``phi`` against the measure.

    The frequency supports must coincide.  At finite dimension a total
    operator is always square integrable; a partial atom additionally needs
    the range of ``nu_j`` inside its domain, checked as
    ``||(I - D_j) F_j||_2 <= tol ||F_j||_2`` for any factor ``F_j F_j^H =
    nu_j`` (both sides are the same for every factor).  Zero-mass atoms
    are skipped (they carry no variation mass).
    """
    return _containment_report(nu, *_range_defects(phi, nu), tol)


def require_integrable(
    phi: TransferFunction,
    nu: AtomicTracePovm,
    tol: float = DOMAIN_TOL,
    label: str = "transfer function",
) -> None:
    """Raise :class:`IntegrabilityError` unless ``phi`` passes
    :func:`square_integrability_check`; the message names the first
    failing atom.

    The decision is that of the check, reached first by an exact Frobenius
    bound: since ``||F||_F <= sqrt(dim) ||F||_2``, a defect with
    ``||(I - D_j) F_j||_F <= tol ||F_j||_F / sqrt(dim)`` passes the
    spectral test.  Both norms are taken relative to the largest entry of
    ``F_j``, so the bound neither overflows nor underflows at any scale.
    Only when the bound does not clear every positive-mass atom is the
    spectral report built.
    """
    mask, defects, factors = _range_defects(phi, nu)
    if defects is None:
        return
    sizes, misses = scaled_norms(factors, defects, axis=(1, 2))
    if np.all((misses <= tol * sizes / np.sqrt(nu.dim))[mask]):
        return
    report = _containment_report(nu, mask, defects, factors, tol)
    if not report:
        bad = report.failures()[0]
        raise IntegrabilityError(
            f"{label} is not square integrable against the measure"
            f" (first failing atom: {bad['atom']}, frequency {bad['freq']:+.6f})"
        )


def gramian_inner(
    phi: TransferFunction, psi: TransferFunction, nu: AtomicTracePovm
) -> np.ndarray:
    """Gramian ``<Phi, Psi>_nu = int Phi dnu Psi^H = sum_j Phi_j nu_j Psi_j^H``.

    Both transfer functions must be square integrable against the measure;
    on a partial atom the weight's range lies in the domain, so the same
    finite sum applies.
    """
    require_integrable(phi, nu, label="left transfer function")
    require_integrable(psi, nu, label="right transfer function")
    return np.einsum("jab,jbc,jdc->ad", phi.ops, nu.weights, psi.ops.conj())


def gramian_norm(phi: TransferFunction, nu: AtomicTracePovm) -> float:
    """Gramian norm ``||Phi||_nu = trace(<Phi, Phi>_nu)^{1/2}``."""
    tr = np.trace(gramian_inner(phi, phi, nu)).real
    return float(np.sqrt(max(tr, 0.0)))
