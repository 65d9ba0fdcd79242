"""Lag-invariant linear filters as operator-valued transfer functions.

A filter acts on a sampled random measure atom by atom; its effect on the
intensity measure is the pushforward ``nu -> Phi nu Phi^H``.  Composition
is pointwise, inversion restricts to the subspace actually charged by the
measure (or, in strict mode, demands injectivity of every atom operator),
and finite impulse response filters connect the time domain to the
spectral domain exactly on grid-supported measures.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, NonInvertibleError, require_integers
from .operators import _SQUARES, _squared_norms
from .povm import AtomicTracePovm, require_integrable
from .random_measure import ProcessSample, RandomMeasure
from .transfer import FirFilter, TransferFunction, require_aligned

__all__ = [
    "apply_filter",
    "apply_fir_time",
    "compose_transfer",
    "fir_to_transfer",
    "invert_transfer",
    "modulate_transfer",
    "pushforward_povm",
]


def pushforward_povm(phi: TransferFunction, nu: AtomicTracePovm) -> AtomicTracePovm:
    """Intensity of the filtered measure: atoms ``(Phi_j F_j)(Phi_j F_j)^H``
    for the Gram factors ``F_j`` of ``nu``; the result keeps ``Phi_j F_j``
    as its own factors, so filtering a filtered measure again takes no
    eigendecomposition."""
    require_integrable(phi, nu)
    return _pushforward(phi, nu)


def _pushforward(phi: TransferFunction, nu: AtomicTracePovm) -> AtomicTracePovm:
    # callers have checked that phi is square integrable against nu
    return AtomicTracePovm._from_factors(
        phi.out_dim, nu.freqs, phi.ops @ nu.gram_factors()
    )


def apply_filter(phi: TransferFunction, w: RandomMeasure) -> RandomMeasure:
    """Filter a sampled measure: samples ``Phi_j Z_j``, pushforward intensity.

    The samples are one stacked :meth:`TransferFunction.apply`, so a sample
    outside the domain of a partial atom raises, naming the first such
    atom.
    """
    require_integrable(phi, w.intensity)
    samples = phi.apply(w.samples)
    samples.flags.writeable = False  # fresh: the record keeps it
    return RandomMeasure(samples=samples, intensity=_pushforward(phi, w.intensity))


def compose_transfer(
    psi: TransferFunction, phi: TransferFunction, rank_tol: float = 1e-12
) -> TransferFunction:
    """Pointwise composition ``Psi_j Phi_j``.

    When an atom of ``psi`` is partial, the composed domain at that atom is
    the preimage of its domain under ``Phi_j`` (intersected with the domain
    of ``Phi_j`` itself), realised as a projector via one stacked
    rank-revealing SVD.
    """
    require_aligned(psi.freqs, phi.freqs)
    if psi.in_dim != phi.out_dim:
        raise DimensionError(
            f"inner dimensions do not match: {psi.in_dim} vs {phi.out_dim}"
        )
    ops = np.einsum("jab,jbc->jac", psi.ops, phi.ops)
    if psi.domains is None and phi.domains is None:
        return TransferFunction(phi.in_dim, psi.out_dim, phi.freqs, ops)
    # The composed domain is the null space of the stacked constraint rows,
    # cut relative to a non-degenerate constraint or the largest singular
    # value, so an all-noise constraint (domain is everything) has rank 0.
    rows, scale = [], np.ones(phi.n_atoms)
    if phi.domains is not None:
        rows.append(np.eye(phi.in_dim) - phi.domains)
    if psi.domains is not None:
        rows.append((np.eye(psi.in_dim) - psi.domains) @ phi.ops)
        scale = np.maximum(scale, np.linalg.norm(phi.ops, 2, axis=(1, 2)))
    _, s, vh = np.linalg.svd(np.concatenate(rows, axis=1), full_matrices=True)
    scale = np.maximum(scale, s[:, 0])
    rank = np.sum(s > rank_tol * scale[:, None], axis=1)
    null = np.arange(phi.in_dim) >= rank[:, None]
    basis = vh.conj().swapaxes(1, 2) * null[:, None, :]
    domains = basis @ basis.conj().swapaxes(1, 2)
    return TransferFunction(phi.in_dim, psi.out_dim, phi.freqs, ops, domains)


# relative slack of the norm bounds of the injectivity test: the computed
# norms are within a small multiple of d^2 eps of the exact ones
_SLACK = 1e-6


def _spectral_norms(ops: np.ndarray) -> np.ndarray:
    # ||op_j||_2 of a stack, read off the largest eigenvalue of op_j^H op_j
    gram = ops.conj().swapaxes(1, 2) @ ops
    return np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[:, -1], 0.0))


def invert_transfer(
    phi: TransferFunction,
    nu: AtomicTracePovm,
    rank_tol: float = 1e-10,
    strict: bool = False,
) -> TransferFunction:
    """Inverse transfer function of an injective filter.

    In the default mode each atom operator only needs to be injective on
    the subspace charged by the measure (the range of ``nu_j^{1/2}``),
    which is the weakest condition making the sample round trip exact on
    supported samples; the inverse maps ``Phi_j z`` back to ``z`` for ``z``
    in that subspace and carries the projector onto its domain
    ``Phi_j(range(nu_j))``.  With ``strict=True`` every positive-mass atom
    operator must be injective on the whole space and the inverse is the
    pseudoinverse with domain ``Im(Phi_j)``.  Zero-mass atoms invert to the
    zero operator with the identity domain.

    All atoms are inverted by one stacked SVD of ``Phi_j V_j``, where the
    ``r_j`` columns of ``V_j`` with positive eigenvalues in the measure's
    cached :meth:`~opspectra.povm.AtomicTracePovm.eigensystem` are kept
    and the rest zeroed (in strict mode ``V_j = I``); each atom keeps its
    top ``r_j`` singular triplets.  The eigensystem is read and never
    written, so inverting against a measure already sampled or decomposed
    takes no eigendecomposition of its weights.
    ``rank_tol`` is the injectivity threshold only: a positive-mass atom
    is rejected with :class:`NonInvertibleError`, naming the first such
    atom, when its ``r_j``-th singular value is at most ``rank_tol`` times
    ``||Phi_j||_2``, read off the largest eigenvalue of ``Phi_j^H Phi_j``.
    That norm is bounded first, with no eigenvalue: it is at most
    ``||Phi_j||_F`` and at least the top singular value of ``Phi_j V_j``
    (equal to it in strict mode and for full-rank atoms), so only the
    atoms these bounds cannot decide, and the atom an error names, take
    the eigenvalue.
    """
    # a transfer must be applicable to the measure before it can be inverted
    require_integrable(phi, nu)
    mask = nu.positive_mass_mask()
    if strict:
        op, rank = phi.ops, np.full(phi.n_atoms, phi.in_dim)
    else:
        # the range of nu_j is spanned by its positive eigenvectors; the rest
        # of the basis is zeroed, which pads every operator Phi_j V_j with
        # zero columns and adds only zero singular values
        vals, vecs = nu.eigensystem()
        support = vals > 0
        basis = vecs * support[:, None, :]
        op, rank = phi.ops @ basis, support.sum(axis=1)
    u, s, vh = np.linalg.svd(op, full_matrices=False)
    # the (n, d, d) stacks op, vh, basis and u are freed as soon as they are
    # used, which halves the transient memory of the inversion
    del op
    # the r_j-th singular value of an injective Phi_j V_j; zero when the
    # operator has fewer rows than r_j
    k = s.shape[1]
    gap = np.where(rank <= k, s[np.arange(phi.n_atoms), np.clip(rank, 1, k) - 1], 0.0)
    # s_j0 <= ||Phi_j||_2 <= ||Phi_j||_F decide the gap test, with a slack
    # far above the rounding of the three norms, wherever the squares are
    # in the window of plain sums; the other atoms take the exact norm
    fro2 = _squared_norms(phi.ops)
    plain = (fro2 >= _SQUARES[0]) & (fro2 <= _SQUARES[1])
    cleared = plain & (gap > rank_tol * np.sqrt(fro2) * (1.0 + _SLACK))
    refused = plain & (gap <= rank_tol * s[:, 0] * (1.0 - _SLACK))
    exact = np.flatnonzero(mask & ~cleared & ~refused)
    failing = mask & refused
    if exact.size:
        failing[exact] = gap[exact] <= rank_tol * _spectral_norms(phi.ops[exact])
    if failing.any():
        j = int(np.argmax(failing))
        smax = _spectral_norms(phi.ops[j : j + 1])[0]
        where = "" if strict else " on the supported subspace"
        raise NonInvertibleError(
            f"atom {j}: operator is not injective{where}"
            f" (singular value gap {gap[j]:.3e} vs"
            f" threshold {rank_tol * smax:.3e})"
        )
    # keep the top r_j triplets of each positive-mass atom; the gap test put
    # them all above rank_tol * s[0], so the range pseudoinverse keeps them
    # all, and zero-mass atoms invert to zero with the identity domain
    keep = (np.arange(k) < rank[:, None]) & mask[:, None]
    s_inv = np.divide(1.0, s, out=np.zeros_like(s), where=keep)
    vh = vh.conj().swapaxes(1, 2)
    vh *= s_inv[:, None, :]
    inv_ops = vh @ u.conj().swapaxes(1, 2)
    del vh
    if not strict:
        inv_ops = basis @ inv_ops
        del basis
    u *= keep[:, None, :]
    domains = u @ u.conj().swapaxes(1, 2)
    del u
    domains[~mask] = np.eye(phi.out_dim)
    for a in (inv_ops, domains):  # fresh stacks: the record keeps them
        a.flags.writeable = False
    return TransferFunction(
        in_dim=phi.out_dim,
        out_dim=phi.in_dim,
        freqs=phi.freqs,
        ops=inv_ops,
        domains=domains,
    )


def fir_to_transfer(fir: FirFilter, freqs) -> TransferFunction:
    """Frequency response ``sum_s F_s exp(-i lambda s)`` of a FIR filter."""
    freqs = np.asarray(freqs, dtype=np.float64).ravel()
    ops = np.zeros(
        (freqs.size, fir.out_dim, fir.in_dim), dtype=np.complex128
    )
    for s, op in fir.taps.items():
        ops += np.exp(-1j * freqs * s)[:, None, None] * op
    return TransferFunction(fir.in_dim, fir.out_dim, freqs, ops)


def apply_fir_time(fir: FirFilter, x: ProcessSample) -> ProcessSample:
    """Circular convolution ``Y_t = sum_s F_s X_{(t - s) mod M}``.

    On measures supported by the even-M uniform grid the process is exactly
    M-periodic and this equals the spectral route
    ``synthesize(apply_filter(fir_to_transfer(F), W))``.
    """
    if fir.in_dim != x.dim:
        raise DimensionError("FIR input dimension must match the process")
    out = np.zeros(
        (x.n_realizations, x.period, fir.out_dim), dtype=np.complex128
    )
    for s, op in fir.taps.items():
        rolled = np.roll(x.values, shift=s, axis=1)
        out += rolled @ op.T
    out.flags.writeable = False
    return ProcessSample(dim=fir.out_dim, period=x.period, values=out)


def modulate_transfer(phi: TransferFunction, h: int) -> TransferFunction:
    """Multiply every atom by the character value ``exp(i lambda h)``.

    Filtering with the modulated function then synthesises the process
    shifted by an integer ``h`` time steps; domains are unchanged.
    """
    require_integers("time shifts", h)
    phases = np.exp(1j * phi.freqs * int(h))
    return TransferFunction(
        in_dim=phi.in_dim,
        out_dim=phi.out_dim,
        freqs=phi.freqs,
        ops=phases[:, None, None] * phi.ops,
        domains=phi.domains,
    )
