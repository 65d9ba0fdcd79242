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

from dataclasses import dataclass

import numpy as np

from .errors import (
    AbsoluteContinuityError,
    DimensionError,
    IntegrabilityError,
    PositivityError,
    _Record,
    require_integers,
)
from .operators import ABS_FLOOR, _rank_cut, psd_mask, scaled_norms, sorted_eigh
from .transfer import (
    DOMAIN_TOL,
    FREQ_MERGE_TOL,
    TransferFunction,
    require_aligned,
    require_support,
)

__all__ = [
    "AtomicTracePovm",
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


@dataclass(frozen=True, eq=False)
class AtomicTracePovm(_Record):
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

    def _store(self) -> None:
        # arrays no caller can change (errors._frozen): the cached eigensystem
        # and factors must not go stale and the support must keep its rule
        (dim,) = require_integers("measure dimensions", self.dim)
        freqs = require_support(self.freqs)
        self._set(dim=dim, freqs=freqs)
        if freqs.size == 0:
            raise DimensionError("a measure needs at least one atom")
        weights = self._keep("weights", np.complex128, (freqs.size, dim, dim))
        if not np.isfinite(weights).all():
            raise DimensionError("operator entries must be finite")
        # finite entries can still sum past the float range on the diagonal
        with np.errstate(over="ignore"):
            finite_traces = np.isfinite(self.traces()).all()
        if not finite_traces:
            raise DimensionError("atom traces must be finite")

    def __reduce__(self):  # no cache travels; kept Gram factors do
        if (factors := self.__dict__.get("_factors")) is None:
            return super().__reduce__()
        return type(self)._from_factors, (self.dim, self.freqs, factors)

    @classmethod
    def _from_factors(cls, dim: int, freqs, factors) -> "AtomicTracePovm":
        """Measure whose weights are ``(B_j B_j^H + h.c.) / 2`` for finite
        factors ``B_j`` of shape ``(dim, k)``: Hermitian and PSD by
        construction, so the PSD test of the constructor is skipped; every
        other check stays.  The measure keeps ``B`` (not copied, made
        read-only) as its :meth:`gram_factors`."""
        factors = np.asarray(factors, dtype=np.complex128)
        # an overflowing product is reported by the finiteness check of _store
        with np.errstate(over="ignore", invalid="ignore"):
            weights = factors @ factors.conj().swapaxes(1, 2)
            weights /= 2.0  # before the sum, as in operators._hermitian_parts
            weights += weights.conj().swapaxes(1, 2)
        weights.flags.writeable = False  # fresh: _store keeps it
        nu = object.__new__(cls)
        nu._set(dim=dim, freqs=freqs, weights=weights)
        nu._store()
        factors.flags.writeable = False
        nu._set(_factors=factors)
        return nu

    @classmethod
    def from_atoms(cls, dim: int, freqs, weights) -> "AtomicTracePovm":
        """Build a measure, canonicalising frequencies and merging duplicates.

        Frequencies are wrapped into (-pi, pi]; atoms closer than
        ``FREQ_MERGE_TOL`` on the circle are merged by adding their weights,
        and a merge across the seam keeps the frequency near pi.
        ``freqs`` must be flat with one entry per weight, else
        :class:`DimensionError`.
        """
        freqs = wrap_frequencies(freqs)
        weights = np.asarray(weights, dtype=np.complex128)
        if freqs.shape != weights.shape[:1]:
            raise DimensionError(f"need one flat frequency per weight, got"
                                 f" {freqs.shape} and {weights.shape}")
        order = np.argsort(freqs, kind="stable")
        freqs, weights = freqs[order], weights[order]
        merged_f, merged_w = [], []
        for f, w in zip(freqs, weights):
            if merged_f and f - merged_f[-1] <= FREQ_MERGE_TOL:
                merged_w[-1] = merged_w[-1] + w
            else:
                merged_f.append(f)
                merged_w.append(w.copy())
        if merged_f and merged_f[0] + 2 * np.pi - merged_f[-1] <= FREQ_MERGE_TOL:
            merged_f.pop(0)
            merged_w[-1] = merged_w[-1] + merged_w.pop(0)
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
            self._set(**{name: value})
        return value

    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """:func:`~opspectra.operators.sorted_eigh` of the atom weights, cut
        by the one rank rule (:func:`~opspectra.operators._rank_cut`):
        non-increasing eigenvalues ``(n, dim)``, positive exactly on each
        atom's support, and phase-fixed eigenvector columns ``(n, dim, dim)``.

        This is the measure's only eigendecomposition.  It is computed on
        first use and cached; every call returns the same read-only arrays,
        which stay valid because no array can change the measure's
        weights.  :meth:`gram_factors`, the support basis of
        :func:`~opspectra.filtering.invert_transfer` and the ranks of
        :func:`~opspectra.decomposition.ckl_decompose` all read it.
        """
        return self._cached("_eigensystem", lambda: _rank_cut(*sorted_eigh(self.weights)))

    def gram_factors(self) -> np.ndarray:
        """The read-only stack ``F_j`` with ``F_j F_j^H = nu_j`` that the
        samplers and every norm read: a filtered measure ``Phi nu Phi^H``
        keeps ``Phi_j F_j`` from its source; any other caches the factors
        ``V_j diag(lambda_j^{1/2})`` of :meth:`eigensystem`, zero past each
        atom's rank.  Norms (``||X F_j||_F^2 = tr(X nu_j X^H)``, ``||X
        F_j||_2^2 = ||X nu_j X^H||_2``) and the law of ``F_j xi`` do not
        depend on the factor, so none takes an eigendecomposition of a
        filtered measure."""
        if (factors := self.__dict__.get("_factors")) is not None:
            return factors
        vals, vecs = self.eigensystem()
        return self._cached("_gram_factors", lambda: vecs * np.sqrt(vals)[:, None, :])


@dataclass(frozen=True, eq=False)
class PovmDensity(_Record):
    """Radon-Nikodym data: scalar base weights and per-atom PSD densities,
    held read-only."""

    base_weights: np.ndarray
    densities: np.ndarray

    def __post_init__(self):
        self._keep("base_weights", np.float64)
        self._keep("densities", np.complex128)


def variation_measure(nu: AtomicTracePovm) -> np.ndarray:
    """Per-atom variation masses ``trace(nu_j)``.

    Zero-trace atoms are retained; use ``nu.positive_mass_mask()`` to flag
    them.
    """
    return nu.traces()


def radon_nikodym(nu: AtomicTracePovm, mu=None) -> PovmDensity:
    """Density of the measure against ``mu`` (default: its variation).

    ``mu`` is given by its finite per-atom masses and must dominate: a zero
    mass is only allowed where the atom itself carries no mass.  With the default
    choice the densities have unit trace on atoms of positive mass.  Both
    arrays of the density are read-only.
    """
    traces = nu.traces()
    if mu is None:
        w = traces
    else:
        w = np.array(np.ravel(mu), dtype=np.float64)  # fresh, not the caller's
        if w.shape != traces.shape:
            raise DimensionError("dominating weights must align with the atoms")
        if not np.isfinite(w).all():
            raise DimensionError("dominating weights must be finite")
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
    for a in (w, densities):  # fresh arrays: read-only, no copy
        a.flags.writeable = False
    return PovmDensity(base_weights=w, densities=densities)


def scalar_integral(nu: AtomicTracePovm, f) -> np.ndarray:
    """Integral of a scalar function ``sum_j f_j nu_j``."""
    fv = np.asarray(f, dtype=np.complex128).ravel()
    if fv.shape != nu.freqs.shape:
        raise DimensionError("scalar function values must align with the atoms")
    if not np.isfinite(fv).all():
        raise DimensionError("scalar function values must be finite")
    return np.einsum("j,jmn->mn", fv, nu.weights)


def _first_uncontained(phi: TransferFunction, nu: AtomicTracePovm) -> int | None:
    """The first positive-mass atom whose weight's range leaves the domain
    of ``phi``, or ``None``, after checking alignment and dimensions: the
    one containment decision of the integrability check and guard.

    An atom passes when ``||(I - D_j) F_j||_2 <= DOMAIN_TOL ||F_j||_2`` for
    the measure's :meth:`~AtomicTracePovm.gram_factors` ``F``.  Since
    ``||F||_F <= sqrt(dim) ||F||_2``, a Frobenius defect within
    ``DOMAIN_TOL ||F_j||_F / sqrt(dim)`` passes without the spectral test;
    both Frobenius norms are relative to the largest entry of ``F_j``, so
    the bound decides the same at every scale.
    """
    require_aligned(phi.freqs, nu.freqs)
    if phi.in_dim != nu.dim:
        raise DimensionError(
            f"transfer input dim {phi.in_dim} does not match measure dim {nu.dim}"
        )
    if phi.domains is None:
        return None
    factors = nu.gram_factors()
    defects = phi.domains @ factors
    np.subtract(factors, defects, out=defects)
    sizes, misses = scaled_norms(factors, defects, axis=(1, 2))
    unsure = np.flatnonzero(
        nu.positive_mass_mask() & (misses > DOMAIN_TOL * sizes / np.sqrt(nu.dim))
    )
    if unsure.size == 0:
        return None
    residuals = (np.linalg.norm(defects[unsure], 2, axis=(1, 2))
                 / np.linalg.norm(factors[unsure], 2, axis=(1, 2)))
    failing = unsure[residuals > DOMAIN_TOL]
    return int(failing[0]) if failing.size else None


def square_integrability_check(phi: TransferFunction, nu: AtomicTracePovm) -> bool:
    """Whether ``phi`` is square integrable against the measure.

    The supports must coincide and the input dimension must be the
    measure's.  At finite dimension a total operator is always square
    integrable; a partial atom of positive mass needs the range of ``nu_j``
    inside its domain, to within ``DOMAIN_TOL`` (zero-mass atoms carry no
    variation mass).
    """
    return _first_uncontained(phi, nu) is None


def require_integrable(
    phi: TransferFunction, nu: AtomicTracePovm, label: str = "transfer function"
) -> None:
    """Raise :class:`IntegrabilityError`, naming the first failing atom,
    unless ``phi`` passes :func:`square_integrability_check`."""
    j = _first_uncontained(phi, nu)
    if j is not None:
        raise IntegrabilityError(
            f"{label} is not square integrable against the measure"
            f" (first failing atom: {j}, frequency {nu.freqs[j]:+.6f})"
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
