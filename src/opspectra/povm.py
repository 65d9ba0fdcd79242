"""Atomic trace-class positive operator valued measures on (-pi, pi].

A measure is a finite list of frequency atoms, each carrying a PSD
trace-class weight operator.  Every integral is then a finite sum, which
makes the identities of the operator calculus exactly testable:

* variation measure and Radon-Nikodym densities,
* integrals of scalar and operator-valued functions,
* the Gramian ``<Phi, Psi>_nu`` and its norm,
* square-integrability of (possibly partial) transfer functions,
* per-atom eigendecompositions.

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
from .operators import (
    ABS_FLOOR,
    HermitianEigenSystem,
    psd_mask,
    psd_roots,
    sorted_eigh,
)
from .transfer import DOMAIN_TOL, FREQ_MERGE_TOL, TransferFunction, require_aligned

__all__ = [
    "AtomicTracePovm",
    "CheckReport",
    "PovmDensity",
    "eigendecompose",
    "gramian_inner",
    "gramian_norm",
    "operator_integral",
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
        freqs = np.asarray(self.freqs, dtype=np.float64).ravel()
        # a private read-only copy: the cached roots must not go stale
        weights = np.array(self.weights, dtype=np.complex128)
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
        psd = psd_mask(weights, 1e-10)
        if not psd.all():
            j = int(np.argmin(psd))
            raise PositivityError(
                f"atom {j} (frequency {freqs[j]:+.6f}) weight is not PSD"
            )

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

    def sqrt_weights(self) -> np.ndarray:
        """Positive square roots ``nu_j^{1/2}`` of the atom weights, stacked.

        The ``(n, dim, dim)`` stack is computed with :func:`psd_roots` on
        first use and cached on the measure; every call returns the same
        read-only array, which stays valid because the measure holds its
        own read-only copy of the weights.
        """
        roots = self.__dict__.get("_roots")
        if roots is None:
            roots = psd_roots(self.weights)
            roots.flags.writeable = False
            object.__setattr__(self, "_roots", roots)
        return roots


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


def square_integrability_check(
    phi: TransferFunction, nu: AtomicTracePovm, tol: float = DOMAIN_TOL
) -> CheckReport:
    """Square integrability of ``phi`` against the measure.

    The frequency supports must coincide.  At finite dimension a total
    operator is always square integrable; a partial atom additionally needs
    the range of ``nu_j^{1/2}`` inside its domain, checked as
    ``||(I - D_j) nu_j^{1/2}|| <= tol ||nu_j^{1/2}||``.  Zero-mass atoms
    are skipped (they carry no variation mass).
    """
    require_aligned(phi.freqs, nu.freqs)
    if phi.in_dim != nu.dim:
        raise DimensionError(
            f"transfer input dim {phi.in_dim} does not match measure dim {nu.dim}"
        )
    mask = nu.positive_mass_mask()
    residuals = np.zeros(nu.n_atoms)
    reason = "total operator"
    if phi.domains is not None:
        roots = nu.sqrt_weights()
        defects = phi.domains @ roots
        np.subtract(roots, defects, out=defects)
        np.divide(np.linalg.norm(defects, 2, axis=(1, 2)),
                  np.linalg.norm(roots, 2, axis=(1, 2)), out=residuals, where=mask)
        reason = "range containment"
    entries = [
        {"atom": j, "freq": float(nu.freqs[j]),
         "passed": bool(residuals[j] <= tol), "residual": float(residuals[j]),
         "reason": reason if mask[j] else "zero mass"}
        for j in range(nu.n_atoms)
    ]
    return CheckReport(ok=all(e["passed"] for e in entries), entries=entries)


def require_integrable(
    phi: TransferFunction,
    nu: AtomicTracePovm,
    tol: float = DOMAIN_TOL,
    label: str = "transfer function",
) -> None:
    """Raise :class:`IntegrabilityError` unless ``phi`` passes
    :func:`square_integrability_check`; the message names the first
    failing atom."""
    report = square_integrability_check(phi, nu, tol)
    if not report:
        bad = report.failures()[0]
        raise IntegrabilityError(
            f"{label} is not square integrable against the measure"
            f" (first failing atom: {bad['atom']}, frequency {bad['freq']:+.6f})"
        )


def operator_integral(
    phi: TransferFunction, nu: AtomicTracePovm, psi: TransferFunction
) -> np.ndarray:
    """The integral ``int Phi dnu Psi^H = sum_j Phi_j nu_j Psi_j^H``.

    Both transfer functions must be square integrable against the measure;
    on a partial atom the weight's range lies in the domain, so the same
    finite sum applies.
    """
    require_integrable(phi, nu, label="left transfer function")
    require_integrable(psi, nu, label="right transfer function")
    return np.einsum("jab,jbc,jdc->ad", phi.ops, nu.weights, psi.ops.conj())


def gramian_inner(
    phi: TransferFunction, psi: TransferFunction, nu: AtomicTracePovm
) -> np.ndarray:
    """Gramian ``<Phi, Psi>_nu = int Phi dnu Psi^H``, see
    :func:`operator_integral`."""
    return operator_integral(phi, nu, psi)


def gramian_norm(phi: TransferFunction, nu: AtomicTracePovm) -> float:
    """Gramian norm ``||Phi||_nu = trace(<Phi, Phi>_nu)^{1/2}``."""
    tr = np.trace(gramian_inner(phi, phi, nu)).real
    return float(np.sqrt(max(tr, 0.0)))


def eigendecompose(nu: AtomicTracePovm, mu=None) -> list[HermitianEigenSystem]:
    """Per-atom eigendecomposition of the density against ``mu``.

    With the default dominating weights the eigenvalues of each positive
    mass atom sum to one.
    """
    vals, vecs = sorted_eigh(radon_nikodym(nu, mu).densities)
    return [HermitianEigenSystem(nu.dim, v, e) for v, e in zip(vals, vecs)]
