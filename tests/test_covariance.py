"""Metamorphic tests: scaling a measure and conjugating it by unitaries.

Scaling every atom weight by ``s`` must scale each output as the theory
says and change no decision, at any representable ``s``; conjugating the
weights and the transfer operators by per-atom unitaries must rotate the
eigenvectors and projectors and leave every spectrum and error alone.
"""

import numpy as np
import pytest

from opspectra import (
    AtomicTracePovm,
    DimensionError,
    IntegrabilityError,
    PositivityError,
    TransferFunction,
    apply_filter,
    ckl_decompose,
    hfpca_report,
    invert_transfer,
    pushforward_povm,
    sample_gaussian_measure,
    square_integrability_check,
)
from opspectra.operators import psd_mask
from opspectra.povm import require_integrable
from opspectra.synthetic import haar_frame, make_rng, random_povm, random_transfer

SCALES = [1e-300, 1e-160, 1e-16, 1.0, 1e16, 1e160, 1e300]

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def _scaled(nu: AtomicTracePovm, s: float) -> AtomicTracePovm:
    return AtomicTracePovm(nu.dim, nu.freqs, s * nu.weights)


@pytest.fixture(scope="module")
def base():
    rng = make_rng(880)
    nu = random_povm(rng, 3, 6, ranks=[3, 1, 0, 2, 1, 3])
    phi = random_transfer(rng, 3, 3, nu.freqs)
    # the range projectors of nu as the domains of a partial transfer: nu
    # is integrable against it, a full-rank measure is not
    domains = ckl_decompose(nu).range_projectors()
    partial = TransferFunction(3, 3, nu.freqs, phi.ops, domains)
    full = random_povm(rng, 3, 6)
    full = AtomicTracePovm(3, nu.freqs, full.weights)
    return {"nu": nu, "phi": phi, "partial": partial, "full": full,
            "q": [1, 2, 1, 3, 1, 2]}


def _forbid_eigen(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("eigenvalue fallback reached")

    monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
    monkeypatch.setattr(np.linalg, "eigh", forbidden)


def _decisions(b, s):
    """Integrability outcomes of the scaled measures against the partial
    transfer, through the roots and through kept factors."""
    nu, full = _scaled(b["nu"], s), _scaled(b["full"], s)
    filtered = pushforward_povm(b["phi"], nu)
    inverse = invert_transfer(b["phi"], nu)
    out = []
    for phi, mu in ((b["partial"], nu), (b["partial"], full), (inverse, filtered),
                    (inverse, pushforward_povm(b["phi"], full))):
        try:
            require_integrable(phi, mu)
            raised = False
        except IntegrabilityError:
            raised = True
        out.append((raised, square_integrability_check(phi, mu).ok))
    return out


class TestScaleCovariance:
    @pytest.mark.parametrize("s", SCALES)
    def test_non_psd_atom_rejected(self, s):
        weights = s * np.stack([np.diag([1.0, 0.5]), np.diag([1.0, -0.5])])
        with pytest.raises(PositivityError, match="atom 1"):
            AtomicTracePovm(2, [0.0, 1.0], weights)
        # just past the threshold -1e-10 * trace norm
        weights[1] = s * np.diag([1.0, -1e-9])
        with pytest.raises(PositivityError, match="atom 1"):
            AtomicTracePovm(2, [0.0, 1.0], weights)

    @pytest.mark.parametrize("s", SCALES)
    def test_psd_mask_is_scale_free(self, s):
        eye = np.eye(2)
        stack = np.stack([
            np.diag([1.0, 0.0]),                    # rank deficient
            np.diag([1.0, -1e-12]),                 # within tolerance
            np.diag([1.0, -1e-6]),                  # negative
            eye + 1e-6 * np.array([[0, 1], [0, 0]]),  # not Hermitian
            eye + 1e-13 * np.array([[0, 1j], [0, 0]]),  # Hermitian within tol
            np.zeros((2, 2)),
        ]).astype(complex)
        np.testing.assert_array_equal(
            psd_mask(s * stack), [True, True, False, False, True, True]
        )

    def test_subnormal_weights_accepted(self, monkeypatch):
        _forbid_eigen(monkeypatch)
        nu = AtomicTracePovm(2, [0.0, 1.0], [np.diag([5e-324, 0.0]), np.eye(2) * 1e-310])
        assert nu.weights[0, 0, 0] == 5e-324

    @pytest.mark.parametrize("s", SCALES)
    def test_rank_deficient_measure_accepted(self, s, base, monkeypatch):
        # the certificate clears a valid measure at every scale, so the
        # eigenvalue fallback is never reached
        _forbid_eigen(monkeypatch)
        nu = _scaled(base["nu"], s)
        assert nu.positive_mass_mask().tolist() == [True, True, False, True, True, True]

    @pytest.mark.parametrize("s", SCALES)
    def test_ckl_ranks_and_hfpca_errors(self, s, base):
        ref_sys = ckl_decompose(base["nu"])
        ref = hfpca_report(base["nu"], base["q"], ref_sys)
        nu = _scaled(base["nu"], s)
        sys = ckl_decompose(nu)
        np.testing.assert_array_equal(sys.ranks, ref_sys.ranks)
        np.testing.assert_allclose(sys.eigenvalues, ref_sys.eigenvalues,
                                   rtol=0, atol=1e-12)
        rep = hfpca_report(nu, base["q"], sys)
        for key in ("optimal_error", "achieved_error"):
            assert rep[key] == pytest.approx(s * ref[key], rel=1e-10)

    @pytest.mark.parametrize("s", SCALES)
    def test_integrability_decisions(self, s, base):
        assert _decisions(base, s) == _decisions(base, 1.0)
        assert _decisions(base, 1.0) == [
            (False, True), (True, False), (False, True), (True, False)
        ]

    @pytest.mark.parametrize("s", SCALES)
    def test_inversion_round_trip(self, s, base):
        nu = _scaled(base["nu"], s)
        w = sample_gaussian_measure(nu, 20, seed=5)
        filtered = apply_filter(base["phi"], w)
        back = apply_filter(invert_transfer(base["phi"], nu), filtered)
        scale = np.abs(w.samples).max()
        assert np.abs(back.samples - w.samples).max() <= 1e-9 * scale
        # a vector leaving the filtered range is refused at every scale
        off = filtered.samples.copy()
        off[1] += 1e-3 * scale * np.array([1.0, -1.0, 1.0])  # a rank-one atom
        with pytest.raises(DimensionError, match="domain"):
            apply_filter(invert_transfer(base["phi"], nu), _with_samples(filtered, off))


def _with_samples(w, samples):
    return type(w)(dim=w.dim, freqs=w.freqs, samples=samples, intensity=w.intensity)


class TestUnitaryCovariance:
    @pytest.fixture(scope="class")
    def pair(self, base):
        rng = make_rng(881)
        u = np.stack([haar_frame(rng, 3, 3) for _ in range(base["nu"].n_atoms)])
        uh = u.conj().swapaxes(1, 2)
        nu = base["nu"]
        rotated = AtomicTracePovm(3, nu.freqs, u @ nu.weights @ uh)
        phi = TransferFunction(3, 3, nu.freqs, u @ base["phi"].ops @ uh)
        return u, rotated, phi

    def test_ckl_spectra_and_projectors(self, base, pair):
        u, rotated, _ = pair
        sys, rot = ckl_decompose(base["nu"]), ckl_decompose(rotated)
        np.testing.assert_array_equal(rot.ranks, sys.ranks)
        np.testing.assert_allclose(rot.eigenvalues, sys.eigenvalues, atol=1e-12)
        np.testing.assert_allclose(
            rot.range_projectors(),
            u @ sys.range_projectors() @ u.conj().swapaxes(1, 2), atol=1e-10,
        )

    def test_hfpca_errors(self, base, pair):
        _, rotated, _ = pair
        ref = hfpca_report(base["nu"], base["q"])
        rep = hfpca_report(rotated, base["q"])
        for key in ("optimal_error", "achieved_error"):
            assert rep[key] == pytest.approx(ref[key], rel=1e-10, abs=1e-13)

    def test_inversion_round_trip(self, pair):
        u, rotated, phi = pair
        w = sample_gaussian_measure(rotated, 20, seed=6)
        inverse = invert_transfer(phi, rotated)
        back = apply_filter(inverse, apply_filter(phi, w))
        assert np.abs(back.samples - w.samples).max() <= 1e-9 * np.abs(w.samples).max()
        # the inverse domains are the rotated images Phi'_j(range nu'_j)
        filtered = pushforward_povm(phi, rotated)
        massive = rotated.positive_mass_mask()
        np.testing.assert_allclose(
            inverse.domains[massive],
            ckl_decompose(filtered).range_projectors()[massive], atol=1e-8,
        )
