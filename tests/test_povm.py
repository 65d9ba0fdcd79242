import numpy as np
import pytest

from opspectra import (
    AbsoluteContinuityError,
    AlignmentError,
    AtomicTracePovm,
    DimensionError,
    IncrementPath,
    IntegrabilityError,
    PositivityError,
    TransferFunction,
    ckl_decompose,
    gramian_inner,
    gramian_norm,
    psd_check,
    radon_nikodym,
    scalar_integral,
    square_integrability_check,
    variation_measure,
    wrap_frequencies,
)
from opspectra.synthetic import make_rng, random_complex, random_povm


def direct_integral(phi, nu, psi):
    """Independent oracle: the literal sum over atoms for total operators."""
    return sum(
        phi.ops[j] @ nu.weights[j] @ psi.ops[j].conj().T
        for j in range(nu.n_atoms)
    )


class TestConstruction:
    def test_requires_increasing_freqs(self):
        with pytest.raises(DimensionError):
            AtomicTracePovm(1, [0.5, 0.5], np.ones((2, 1, 1)))

    def test_requires_psd_weights(self):
        with pytest.raises(PositivityError):
            AtomicTracePovm(2, [0.0], [np.diag([1.0, -1.0])])

    def test_positivity_floor_scales_with_the_measure(self):
        # a negative eigenvalue half the size of the positive one is not
        # round-off at any scale
        with pytest.raises(PositivityError):
            AtomicTracePovm(2, [0.0], [1e-16 * np.diag([1.0, -0.5])])

    def test_requires_hermitian_weights(self):
        # the Hermitian part [[1, 1/2], [1/2, 1]] is positive definite, so
        # only the Hermitian-defect test can reject this atom
        with pytest.raises(PositivityError):
            AtomicTracePovm(2, [0.0], [[[1.0, 1.0], [0.0, 1.0]]])

    def test_requires_finite_traces(self):
        # every entry is finite; their sum on the diagonal is not
        with pytest.raises(DimensionError, match="atom traces must be finite"):
            AtomicTracePovm(3, [0.0], [np.diag([1e308] * 3)])

    def test_requires_canonical_range(self):
        with pytest.raises(DimensionError):
            AtomicTracePovm(1, [-np.pi], np.ones((1, 1, 1)))

    @pytest.mark.parametrize(
        "support",
        [[np.nan], [np.inf], [-np.inf], [-np.pi], [np.pi + 1e-15], [0.5, 0.5],
         [1.0, 0.5], [0.0, np.nan]],
        ids=["nan", "inf", "-inf", "-pi", "past-pi", "repeated", "decreasing",
             "trailing-nan"],
    )
    @pytest.mark.parametrize("build", [
        lambda f: AtomicTracePovm(1, f, np.ones((len(f), 1, 1))),
        lambda f: TransferFunction(1, 1, f, np.ones((len(f), 1, 1))),
        lambda f: IncrementPath(1, f, np.ones((len(f), 1, 1))),
    ], ids=["measure", "transfer", "increment-path"])
    def test_every_support_takes_one_rule(self, build, support):
        with pytest.raises(DimensionError, match="must be"):
            build(support)

    def test_from_atoms_wraps_and_merges(self):
        nu = AtomicTracePovm.from_atoms(
            1,
            [3.0 * np.pi, np.pi, 0.0],
            np.array([[[1.0]], [[2.0]], [[4.0]]], dtype=complex),
        )
        np.testing.assert_allclose(nu.freqs, [0.0, np.pi])
        np.testing.assert_allclose(nu.weights[:, 0, 0], [4.0, 3.0])

    def test_from_atoms_merges_across_the_seam(self):
        # -pi + 1e-13 is 1e-13 from pi on the circle, as 1e-13 is from 0
        nu = AtomicTracePovm.from_atoms(
            1, [np.pi, -np.pi + 1e-13, 0.0], np.array([[[1.0]], [[2.0]], [[4.0]]])
        )
        np.testing.assert_array_equal(nu.freqs, [0.0, np.pi])
        np.testing.assert_array_equal(nu.weights[:, 0, 0], [4.0, 3.0])

    @pytest.mark.parametrize(
        "freqs, n_weights",
        [([0.0], 2), ([0.0, 1.0], 1), ([[0.0], [1.0]], 2)],
        ids=["fewer-freqs", "fewer-weights", "nested-freqs"],
    )
    def test_from_atoms_needs_one_flat_frequency_per_weight(self, freqs, n_weights):
        with pytest.raises(DimensionError, match="one flat frequency per weight"):
            AtomicTracePovm.from_atoms(1, freqs, np.ones((n_weights, 1, 1)))

    def test_wrap_frequencies_range(self):
        wrapped = wrap_frequencies([-np.pi, np.pi, 2 * np.pi, -3 * np.pi / 2])
        assert np.all(wrapped > -np.pi) and np.all(wrapped <= np.pi)
        np.testing.assert_allclose(
            wrapped, [np.pi, np.pi, 0.0, np.pi / 2], atol=1e-12
        )


class TestSqrtWeights:
    """The Gram factors that replaced the roots: cached, read-only, and
    fixed when the caller changes the weights it passed."""

    def test_cached_read_only_roots(self):
        rng = make_rng(223)
        ranks = [3, 1, 2, 3]
        nu = random_povm(rng, 3, 4, ranks=ranks)
        factors = nu.gram_factors()
        assert nu.gram_factors() is factors
        assert not factors.flags.writeable
        gram = factors @ factors.conj().swapaxes(1, 2)
        assert np.abs(gram - nu.weights).max() <= 1e-12
        for f, r in zip(factors, ranks):
            assert not f[:, r:].any() and np.all(np.linalg.norm(f[:, :r], axis=0) > 0)


    def test_weights_are_a_read_only_copy(self):
        weights = np.stack([np.eye(2, dtype=complex)] * 3)
        nu = AtomicTracePovm(2, [-1.0, 0.0, 1.0], weights)
        factors = nu.gram_factors()
        weights *= 4.0
        np.testing.assert_array_equal(nu.weights, np.stack([np.eye(2)] * 3))
        np.testing.assert_array_equal(nu.gram_factors(), np.stack([np.eye(2)] * 3))
        assert nu.gram_factors() is factors
        assert not nu.weights.flags.writeable
        with pytest.raises(ValueError):
            nu.weights[0, 0, 0] = 2.0

    def test_freqs_are_a_read_only_copy(self):
        freqs = np.array([-1.0, 0.0, 1.0])
        nu = AtomicTracePovm(1, freqs, np.ones((3, 1, 1)))
        freqs[:] = 1.0
        np.testing.assert_array_equal(nu.freqs, [-1.0, 0.0, 1.0])
        assert not nu.freqs.flags.writeable
        with pytest.raises(ValueError):
            nu.freqs[0] = 2.0


class TestVariationMeasure:
    def test_identity_atom(self):
        nu = AtomicTracePovm(2, [0.0], [np.eye(2)])
        np.testing.assert_allclose(variation_measure(nu), [2.0])

    def test_two_diagonal_atoms(self):
        nu = AtomicTracePovm(
            2, [-1.0, 1.0], [np.diag([1.0, 0.0]), np.diag([0.0, 3.0])]
        )
        np.testing.assert_allclose(variation_measure(nu), [1.0, 3.0])

    def test_eigenvalue_oracle(self):
        rng = make_rng(201)
        nu = random_povm(rng, 3, 5)
        expected = [np.linalg.eigvalsh(w).sum() for w in nu.weights]
        np.testing.assert_allclose(variation_measure(nu), expected, atol=1e-12)

    def test_zero_atoms_retained_and_flagged(self):
        nu = AtomicTracePovm(2, [-1.0, 1.0], [np.zeros((2, 2)), np.eye(2)])
        assert variation_measure(nu).shape == (2,)
        np.testing.assert_array_equal(nu.positive_mass_mask(), [False, True])


class TestRadonNikodym:
    def test_default_density_unit_trace(self):
        nu = AtomicTracePovm(2, [0.0], [2.0 * np.eye(2)])
        density = radon_nikodym(nu)
        np.testing.assert_allclose(density.base_weights, [4.0])
        np.testing.assert_allclose(density.densities[0], np.eye(2) / 2.0)

    def test_scaling_dominating_measure(self):
        nu = AtomicTracePovm(2, [0.0], [2.0 * np.eye(2)])
        doubled = radon_nikodym(nu, mu=[8.0])
        np.testing.assert_allclose(doubled.densities[0], np.eye(2) / 4.0)

    def test_reconstruction_oracle(self):
        rng = make_rng(202)
        nu = random_povm(rng, 4, 6)
        density = radon_nikodym(nu)
        rebuilt = density.base_weights[:, None, None] * density.densities
        assert np.abs(rebuilt - nu.weights).max() <= 1e-13
        for j, g in enumerate(density.densities):
            assert np.trace(g).real == pytest.approx(1.0, abs=1e-12)

    def test_domination_violation(self):
        nu = AtomicTracePovm(2, [-1.0, 1.0], [np.eye(2), np.eye(2)])
        with pytest.raises(AbsoluteContinuityError):
            radon_nikodym(nu, mu=[0.0, 1.0])

    def test_zero_mass_atom_allows_zero_weight(self):
        nu = AtomicTracePovm(2, [-1.0, 1.0], [np.zeros((2, 2)), np.eye(2)])
        density = radon_nikodym(nu, mu=[0.0, 2.0])
        assert not density.densities[0].any()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("atom", [0, 1])
    def test_non_finite_dominating_weight(self, bad, atom):
        nu = AtomicTracePovm(2, [-1.0, 1.0], [np.zeros((2, 2)), np.eye(2)])
        mu = [2.0, 2.0]
        mu[atom] = bad
        with pytest.raises(DimensionError, match="dominating weights must be finite"):
            radon_nikodym(nu, mu=mu)


class TestScalarIntegral:
    def test_constant_one_gives_total_mass(self):
        rng = make_rng(203)
        nu = random_povm(rng, 3, 4)
        total = scalar_integral(nu, np.ones(4))
        assert np.abs(total - nu.total_mass()).max() <= 1e-13

    def test_indicator_selects_atom(self):
        rng = make_rng(204)
        nu = random_povm(rng, 3, 4)
        f = np.zeros(4)
        f[2] = 1.0
        np.testing.assert_array_equal(scalar_integral(nu, f), nu.weights[2])

    def test_quadratic_form_oracle(self):
        rng = make_rng(205)
        nu = random_povm(rng, 3, 4)
        f = random_complex(rng, 4)
        op = scalar_integral(nu, f)
        for _ in range(20):
            x = random_complex(rng, 3)
            lhs = np.vdot(x, op @ x)
            rhs = sum(
                f[j] * np.vdot(x, nu.weights[j] @ x) for j in range(4)
            )
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    def test_length_mismatch(self):
        rng = make_rng(206)
        nu = random_povm(rng, 3, 4)
        with pytest.raises(DimensionError):
            scalar_integral(nu, np.ones(3))

    def test_sigma_additivity_over_partitions(self):
        rng = make_rng(207)
        nu = random_povm(rng, 3, 6)
        groups = [[0, 3], [1], [2, 4, 5]]
        total = np.zeros((3, 3), dtype=complex)
        for g in groups:
            f = np.zeros(6)
            f[g] = 1.0
            total += scalar_integral(nu, f)
        # additivity is exact up to float re-association across groups
        scale = np.abs(nu.total_mass()).max()
        assert np.abs(total - nu.total_mass()).max() <= 1e-13 * scale


class TestOperatorIntegral:
    def test_identity_transfer_gives_total_mass(self):
        rng = make_rng(208)
        nu = random_povm(rng, 3, 4)
        ident = TransferFunction(3, 3, nu.freqs, np.tile(np.eye(3), (4, 1, 1)))
        result = gramian_inner(ident, ident, nu)
        assert np.abs(result - nu.total_mass()).max() <= 1e-12

    def test_zero_transfer(self):
        rng = make_rng(209)
        nu = random_povm(rng, 3, 4)
        zero = TransferFunction(3, 2, nu.freqs, np.zeros((4, 2, 3)))
        assert not gramian_inner(zero, zero, nu).any()

    def test_direct_sum_oracle(self):
        rng = make_rng(210)
        nu = random_povm(rng, 3, 5)
        phi = TransferFunction(3, 2, nu.freqs, random_complex(rng, (5, 2, 3)))
        psi = TransferFunction(3, 4, nu.freqs, random_complex(rng, (5, 4, 3)))
        result = gramian_inner(phi, psi, nu)
        assert np.abs(result - direct_integral(phi, nu, psi)).max() <= 1e-12


class TestGramian:
    def test_null_class_has_zero_norm(self):
        # A transfer function supported outside the range of every atom.
        nu = AtomicTracePovm(
            2, [-1.0, 1.0], [np.diag([1.0, 0.0]), np.diag([2.0, 0.0])]
        )
        shift = np.array([[0.0, 1.0], [0.0, 0.0]])
        killer = TransferFunction(2, 2, nu.freqs, np.stack([shift, shift]))
        assert gramian_norm(killer, nu) <= 1e-12

    def test_single_atom_identity(self):
        rng = make_rng(212)
        p = random_complex(rng, (3, 3))
        nu = AtomicTracePovm(3, [0.0], [np.eye(3)])
        phi = TransferFunction(3, 3, nu.freqs, p[None])
        inner = gramian_inner(phi, phi, nu)
        assert np.abs(inner - p @ p.conj().T).max() <= 1e-12

    def test_hilbert_schmidt_norm_oracle(self):
        rng = make_rng(213)
        nu = random_povm(rng, 3, 4)
        phi = TransferFunction(3, 3, nu.freqs, random_complex(rng, (4, 3, 3)))
        factors = nu.gram_factors()
        expected_sq = sum(
            np.linalg.norm(phi.ops[j] @ factors[j]) ** 2 for j in range(4)
        )
        assert gramian_norm(phi, nu) ** 2 == pytest.approx(
            expected_sq, abs=1e-12 * max(1.0, expected_sq)
        )

    def test_gramian_axioms(self):
        rng = make_rng(214)
        nu = random_povm(rng, 3, 4)
        phi = TransferFunction(3, 2, nu.freqs, random_complex(rng, (4, 2, 3)))
        psi = TransferFunction(3, 2, nu.freqs, random_complex(rng, (4, 2, 3)))
        theta = TransferFunction(3, 2, nu.freqs, random_complex(rng, (4, 2, 3)))
        p = random_complex(rng, (2, 2))

        self_inner = gramian_inner(phi, phi, nu)
        assert psd_check(self_inner, 1e-12)

        combo = TransferFunction(3, 2, nu.freqs, phi.ops + p @ psi.ops)
        lhs = gramian_inner(combo, theta, nu)
        rhs = gramian_inner(phi, theta, nu) + p @ gramian_inner(psi, theta, nu)
        assert np.abs(lhs - rhs).max() <= 1e-12

        sym = gramian_inner(psi, phi, nu)
        assert np.abs(sym - gramian_inner(phi, psi, nu).conj().T).max() <= 1e-12

    def test_norm_domination(self):
        rng = make_rng(215)
        nu = random_povm(rng, 3, 5)
        phi = TransferFunction(3, 3, nu.freqs, random_complex(rng, (5, 3, 3)))
        weights = variation_measure(nu)
        bound = sum(
            weights[j] * np.linalg.norm(phi.ops[j], 2) ** 2 for j in range(5)
        )
        assert gramian_norm(phi, nu) ** 2 <= bound + 1e-12


class TestSquareIntegrability:
    def test_total_always_passes(self):
        rng = make_rng(216)
        nu = random_povm(rng, 3, 4)
        phi = TransferFunction(3, 5, nu.freqs, random_complex(rng, (4, 5, 3)))
        assert square_integrability_check(phi, nu)

    def test_pinv_of_rank_one_fails_on_full_rank(self):
        rng = make_rng(217)
        nu = random_povm(rng, 3, 2)
        rank_one = np.zeros((3, 3), dtype=complex)
        rank_one[0, 0] = 1.0
        pinv = np.linalg.pinv(rank_one, rcond=1e-12)
        proj = rank_one @ pinv
        phi = TransferFunction(
            3, 3, nu.freqs, np.stack([pinv, pinv]), np.stack([proj, proj])
        )
        assert not square_integrability_check(phi, nu)

    def test_exact_containment_passes(self):
        rng = make_rng(218)
        nu = random_povm(rng, 3, 2, ranks=[2, 1])
        domains = np.stack(
            [w @ np.linalg.pinv(w, rcond=1e-12, hermitian=True) for w in nu.weights]
        )
        phi = TransferFunction(
            3, 3, nu.freqs, random_complex(rng, (2, 3, 3)), domains
        )
        assert square_integrability_check(phi, nu)

    def test_bound_clears_without_svd(self, monkeypatch):
        # exact containment: the Frobenius bound clears every atom, so no
        # spectral norm is taken
        rng = make_rng(218)
        nu = random_povm(rng, 3, 2, ranks=[2, 1])
        domains = np.stack(
            [w @ np.linalg.pinv(w, rcond=1e-12, hermitian=True) for w in nu.weights]
        )
        phi = TransferFunction(
            3, 3, nu.freqs, random_complex(rng, (2, 3, 3)), domains
        )
        calls = []
        svd, norm = np.linalg.svd, np.linalg.norm

        def counted_svd(*args, **kwargs):
            calls.append("svd")
            return svd(*args, **kwargs)

        def counted_norm(x, ord=None, *args, **kwargs):
            if ord == 2:
                calls.append("norm2")
            return norm(x, ord, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        monkeypatch.setattr(np.linalg, "norm", counted_norm)
        assert square_integrability_check(phi, nu)
        assert calls == []

    def test_zero_mass_atoms_skipped(self):
        nu = AtomicTracePovm(2, [-1.0, 1.0], [np.zeros((2, 2)), np.eye(2)])
        empty = np.zeros((2, 2), dtype=complex)
        phi = TransferFunction(
            2, 2, nu.freqs,
            np.stack([np.eye(2, dtype=complex)] * 2),
            np.stack([empty, np.eye(2, dtype=complex)]),
        )
        assert square_integrability_check(phi, nu)

    def test_integral_raises_on_violation(self):
        rng = make_rng(219)
        nu = random_povm(rng, 3, 2)
        empty = np.zeros((3, 3), dtype=complex)
        phi = TransferFunction(
            3, 3, nu.freqs,
            random_complex(rng, (2, 3, 3)),
            np.stack([empty, empty]),
        )
        with pytest.raises(IntegrabilityError, match="atom"):
            gramian_inner(phi, phi, nu)

    def test_shape_mismatch(self):
        rng = make_rng(220)
        nu = random_povm(rng, 3, 4)
        phi = TransferFunction(2, 2, nu.freqs, random_complex(rng, (4, 2, 2)))
        with pytest.raises(DimensionError):
            square_integrability_check(phi, nu)

    @pytest.mark.parametrize(
        "call",
        [
            lambda phi, nu: square_integrability_check(phi, nu),
            lambda phi, nu: gramian_inner(phi, phi, nu),
        ],
        ids=["check", "gramian_inner"],
    )
    def test_shifted_support_of_same_size(self, call):
        rng = make_rng(222)
        nu = random_povm(rng, 3, 4)
        shifted = np.sort(np.clip(nu.freqs + 1e-3, -np.pi + 1e-3, np.pi))
        phi = TransferFunction(3, 2, shifted, random_complex(rng, (4, 2, 3)))
        with pytest.raises(AlignmentError):
            call(phi, nu)


class TestEigendecompose:
    """Per-atom eigensystems of the unit-trace densities, from
    ``ckl_decompose``."""

    def test_diagonal_atom(self):
        nu = AtomicTracePovm(2, [0.0], [np.diag([0.7, 0.3])])
        sys = ckl_decompose(nu)
        np.testing.assert_allclose(sys.eigenvalues[0], [0.7, 0.3], atol=1e-14)
        assert np.abs(np.abs(sys.eigenvectors[0]) - np.eye(2)).max() <= 1e-12

    def test_degenerate_atom(self):
        nu = AtomicTracePovm(2, [0.0], [np.eye(2)])
        sys = ckl_decompose(nu)
        np.testing.assert_allclose(sys.eigenvalues[0], [0.5, 0.5], atol=1e-14)
        vecs = sys.eigenvectors[0]
        assert np.abs(vecs.conj().T @ vecs - np.eye(2)).max() <= 1e-12

    def test_reconstruction_and_unit_trace(self):
        rng = make_rng(221)
        nu = random_povm(rng, 4, 5)
        density = radon_nikodym(nu)
        sys = ckl_decompose(nu)
        for vals, vecs, g in zip(sys.eigenvalues, sys.eigenvectors, density.densities):
            assert np.abs((vecs * vals) @ vecs.conj().T - g).max() <= 1e-10
            assert vals.sum() == pytest.approx(1.0, abs=1e-12)
            assert vals.sum() == pytest.approx(np.trace(g).real, abs=1e-12)


class TestIntegrabilityScreen:
    """The guard's Frobenius pre-screen decides as the spectral residual
    ``||(I - D_j) nu_j^{1/2}||_2 <= tol ||nu_j^{1/2}||_2`` does."""

    @staticmethod
    def instance(eps):
        frame = make_rng(230).standard_normal((4, 4)) + 0j
        frame = np.linalg.qr(frame)[0]
        inside, leak = frame[:, :2], frame[:, 2]
        dom = inside @ inside.conj().T
        b = inside @ np.array([[1.0, 0.3], [0.2, 0.8]]) + eps * np.outer(leak, [1.0, 0.5])
        weights = np.stack([
            # below the mass floor and outside the domain: skipped
            1e-20 * np.outer(leak, leak.conj()),
            b @ b.conj().T,
            inside @ inside.conj().T,
            np.eye(4),
        ])
        domains = np.stack([dom, dom, dom, np.eye(4)])
        nu = AtomicTracePovm(4, [-2.0, -1.0, 0.0, 1.0], weights)
        phi = TransferFunction(4, 4, nu.freqs, np.zeros((4, 4, 4)), domains)
        return phi, nu

    @staticmethod
    def spectral_reference(phi, nu, tol):
        factors = nu.gram_factors()
        mask = nu.positive_mass_mask()
        ok = True
        for j in np.flatnonzero(mask):
            defect = factors[j] - phi.domains[j] @ factors[j]
            ok &= np.linalg.norm(defect, 2) <= tol * np.linalg.norm(factors[j], 2)
        return bool(ok)

    def test_accepts_exactly_when_spectral_reference_does(self):
        from opspectra.povm import require_integrable

        tol = 1e-8
        decisions, unsure_but_accepted = [], 0
        for eps in np.geomspace(1e-9, 1e-7, 60):
            phi, nu = self.instance(eps)
            assert not nu.positive_mass_mask()[0]
            ref = self.spectral_reference(phi, nu, tol)
            try:
                require_integrable(phi, nu)
                got = True
            except IntegrabilityError as exc:
                assert "first failing atom: 1," in str(exc)
                got = False
            assert got == ref, eps
            assert bool(square_integrability_check(phi, nu)) == ref
            decisions.append(got)
            factor = nu.gram_factors()[1]
            fro = np.linalg.norm(factor - phi.domains[1] @ factor)
            if ref and fro > tol * np.linalg.norm(factor) / 2.0:
                unsure_but_accepted += 1
        assert True in decisions and False in decisions
        # accepted instances the Frobenius bound alone could not clear
        assert unsure_but_accepted >= 1
