import numpy as np
import pytest

from opspectra import (
    AlignmentError,
    AtomicTracePovm,
    IncrementPath,
    IntegrabilityError,
    SampleSizeError,
    TransferFunction,
    autocov_from_povm,
    empirical_autocov,
    empirical_gramian,
    from_increment_path,
    grid_frequencies,
    gramian_inner,
    modulate_transfer,
    sample_gaussian_measure,
    spectral_integral,
    synthesize_process,
    to_increment_path,
)
from opspectra.bochner import on_grid
from opspectra.synthetic import (
    make_rng,
    random_complex,
    random_grid_povm,
    random_povm,
    random_transfer,
)


def explicit_synthesis(w, period):
    """Oracle: the literal phase sum, one exp per (time, atom) term."""
    out = np.zeros((w.n_realizations, period, w.dim), dtype=complex)
    for t in range(period):
        for lam, z in zip(w.freqs, w.samples):
            out[:, t, :] += np.exp(1j * lam * t) * z
    return out


def relative_error(got, ref):
    return np.abs(got - ref).max() / np.abs(ref).max()


class TestSampling:
    def test_zero_atom_gives_zero_samples(self):
        nu = AtomicTracePovm(2, [-1.0, 1.0], [np.zeros((2, 2)), np.eye(2)])
        w = sample_gaussian_measure(nu, 100, seed=1)
        assert not w.samples[0].any()

    def test_scalar_variance_monte_carlo(self):
        n_real = 100_000
        nu = AtomicTracePovm(1, [0.0], [np.eye(1)])
        w = sample_gaussian_measure(nu, n_real, seed=2)
        z = w.samples[0][:, 0]
        var = np.mean(np.abs(z) ** 2)
        assert abs(var - 1.0) <= 5.0 / np.sqrt(n_real)
        # circular symmetry: the relation part E[Z^2] vanishes
        rel = np.mean(z * z)
        assert abs(rel) <= 5.0 / np.sqrt(n_real)

    def test_cross_atom_covariance_monte_carlo(self):
        n_real = 100_000
        nu = AtomicTracePovm(2, [-1.0, 1.0], [np.eye(2), np.eye(2)])
        w = sample_gaussian_measure(nu, n_real, seed=3)
        cross = empirical_gramian(w.samples[0], w.samples[1])
        scale = float(np.trace(nu.total_mass()).real)
        assert np.abs(cross).max() <= 5.0 * scale / np.sqrt(n_real)

    def test_per_atom_covariance_monte_carlo(self):
        rng = make_rng(401)
        n_real = 50_000
        nu = random_povm(rng, 3, 2)
        w = sample_gaussian_measure(nu, n_real, seed=4)
        scale = float(np.trace(nu.total_mass()).real)
        for j in range(2):
            cov = empirical_gramian(w.samples[j], w.samples[j])
            assert np.abs(cov - nu.weights[j]).max() <= 5.0 * scale / np.sqrt(n_real)

    def test_seed_reproducibility_bitwise(self):
        rng = make_rng(402)
        nu = random_povm(rng, 3, 4)
        a = sample_gaussian_measure(nu, 64, seed=5)
        b = sample_gaussian_measure(nu, 64, seed=5)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_atom_order_independence(self):
        rng = make_rng(403)
        nu = random_povm(rng, 3, 5)
        a = sample_gaussian_measure(nu, 32, seed=6)
        b = sample_gaussian_measure(nu, 32, seed=6, _atom_order=[4, 2, 0, 3, 1])
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_requires_positive_ensemble(self):
        rng = make_rng(404)
        nu = random_povm(rng, 2, 2)
        with pytest.raises(SampleSizeError):
            sample_gaussian_measure(nu, 0, seed=7)


class TestRealSampling:
    def _symmetric_povm(self, rng):
        a = random_complex(rng, (2, 2))
        w_pos = a @ a.conj().T
        w_pos = (w_pos + w_pos.conj().T) / 2.0
        w_zero = np.diag([1.0, 0.5]).astype(complex)
        w_pi = np.diag([0.3, 0.7]).astype(complex)
        return AtomicTracePovm(
            2, [-1.2, 0.0, 1.2, np.pi], np.stack([w_pos.T, w_zero, w_pos, w_pi])
        )

    def test_synthesis_is_real(self):
        from opspectra import sample_real_gaussian_measure

        rng = make_rng(420)
        nu = self._symmetric_povm(rng)
        w = sample_real_gaussian_measure(nu, 32, seed=25)
        x = synthesize_process(w, 8)
        assert np.abs(x.values.imag).max() <= 1e-12

    def test_covariance_matches_intensity(self):
        from opspectra import sample_real_gaussian_measure

        rng = make_rng(421)
        nu = self._symmetric_povm(rng)
        n_real = 50_000
        w = sample_real_gaussian_measure(nu, n_real, seed=26)
        scale = float(np.trace(nu.total_mass()).real)
        for j in range(4):
            cov = empirical_gramian(w.samples[j], w.samples[j])
            assert np.abs(cov - nu.weights[j]).max() <= 5.0 * scale / np.sqrt(n_real)

    def test_rejects_asymmetric_support(self):
        from opspectra import sample_real_gaussian_measure

        nu = AtomicTracePovm(2, [0.7], [np.eye(2)])
        with pytest.raises(AlignmentError):
            sample_real_gaussian_measure(nu, 4, seed=27)

    def test_rejects_complex_endpoint_weight(self):
        from opspectra import DimensionError, sample_real_gaussian_measure

        w = np.array([[1.0, 0.5j], [-0.5j, 1.0]])
        nu = AtomicTracePovm(2, [0.0], [w])
        with pytest.raises(DimensionError):
            sample_real_gaussian_measure(nu, 4, seed=28)


class TestSpectralIntegral:
    def test_indicator_times_operator(self):
        rng = make_rng(405)
        nu = random_povm(rng, 3, 4)
        w = sample_gaussian_measure(nu, 16, seed=8)
        p = random_complex(rng, (2, 3))
        ops = np.zeros((4, 2, 3), dtype=complex)
        ops[2] = p
        phi = TransferFunction(3, 2, nu.freqs, ops)
        result = spectral_integral(phi, w)
        expected = w.samples[2] @ p.T
        np.testing.assert_array_equal(result, expected)

    def test_zero_transfer(self):
        rng = make_rng(406)
        nu = random_povm(rng, 3, 4)
        w = sample_gaussian_measure(nu, 16, seed=9)
        phi = TransferFunction.constant(np.zeros((2, 3)), nu.freqs)
        assert not spectral_integral(phi, w).any()

    def test_isometry_monte_carlo(self):
        rng = make_rng(407)
        n_real = 50_000
        nu = random_povm(rng, 3, 4)
        phi = random_transfer(rng, 3, 2, nu.freqs)
        w = sample_gaussian_measure(nu, n_real, seed=10)
        u = spectral_integral(phi, w)
        model = gramian_inner(phi, phi, nu)
        scale = float(np.trace(model).real)
        err = np.abs(empirical_gramian(u, u) - model).max()
        assert err <= 5.0 * scale / np.sqrt(n_real)

    def test_alignment_error(self):
        rng = make_rng(408)
        nu = random_povm(rng, 3, 4)
        w = sample_gaussian_measure(nu, 8, seed=11)
        phi = random_transfer(rng, 3, 2, nu.freqs + 0.1)
        with pytest.raises(AlignmentError):
            spectral_integral(phi, w)

    def test_integrability_error(self):
        rng = make_rng(409)
        nu = random_povm(rng, 3, 2)
        w = sample_gaussian_measure(nu, 8, seed=12)
        empty = np.zeros((3, 3), dtype=complex)
        phi = TransferFunction(
            3, 3, nu.freqs, random_complex(rng, (2, 3, 3)),
            np.stack([empty, empty]),
        )
        with pytest.raises(IntegrabilityError):
            spectral_integral(phi, w)

    def test_sigma_additivity_of_restriction(self):
        rng = make_rng(410)
        nu = random_povm(rng, 2, 6)
        w = sample_gaussian_measure(nu, 8, seed=13)
        union = w.restrict(np.ones(6, dtype=bool))
        groups = [np.zeros(6, dtype=bool) for _ in range(2)]
        groups[0][[0, 2, 4]] = True
        groups[1][[1, 3, 5]] = True
        parts = w.restrict(groups[0]) + w.restrict(groups[1])
        scale = np.abs(union).max()
        assert np.abs(union - parts).max() <= 1e-13 * scale


class TestSynthesis:
    def test_single_atom_constant(self):
        nu = AtomicTracePovm(2, [0.0], [np.eye(2)])
        w = sample_gaussian_measure(nu, 8, seed=14)
        x = synthesize_process(w, 5)
        for t in range(5):
            assert np.abs(x.values[:, t, :] - w.samples[0]).max() <= 1e-15

    def test_atom_at_pi_alternates(self):
        nu = AtomicTracePovm(2, [np.pi], [np.eye(2)])
        w = sample_gaussian_measure(nu, 8, seed=15)
        x = synthesize_process(w, 6)
        signs = (-1.0) ** np.arange(6)
        expected = signs[None, :, None] * w.samples[0][:, None, :]
        assert np.abs(x.values - expected).max() <= 1e-12

    def test_autocovariance_monte_carlo(self):
        rng = make_rng(411)
        n_real = 50_000
        nu = random_povm(rng, 2, 3)
        w = sample_gaussian_measure(nu, n_real, seed=16)
        x = synthesize_process(w, 6)
        gamma_hat, se = empirical_autocov(x, 2)
        gamma = autocov_from_povm(nu, 2)
        scale = float(np.trace(nu.total_mass()).real)
        for h in range(3):
            err = np.abs(gamma_hat.gamma(h) - gamma.gamma(h)).max()
            assert err <= 5.0 * se * scale

    def test_lag_modulation_intertwining(self):
        rng = make_rng(412)
        nu = random_povm(rng, 3, 4)
        w = sample_gaussian_measure(nu, 8, seed=17)
        h = 3
        modulated = modulate_transfer(TransferFunction.identity(3, nu.freqs), h)
        from opspectra import apply_filter

        w_mod = apply_filter(modulated, w)
        x = synthesize_process(w, 10 + h)
        x_mod = synthesize_process(w_mod, 10)
        err = np.abs(x_mod.values - x.values[:, h:, :]).max()
        assert err <= 1e-12 * max(1.0, np.abs(x.values).max())


class TestSynthesisRoutes:
    @pytest.mark.parametrize("m", [1, 2, 15, 16, 64])
    @pytest.mark.parametrize("period", ["one", "short", "period", "three"])
    def test_grid_synthesis_matches_explicit_sum(self, m, period):
        period = {"one": 1, "short": max(m - 1, 1), "period": m, "three": 3 * m}[period]
        nu = random_grid_povm(make_rng((420, m)), 2, m)
        assert on_grid(nu.freqs)
        w = sample_gaussian_measure(nu, 5, seed=m)
        x = synthesize_process(w, period)
        assert relative_error(x.values, explicit_synthesis(w, period)) <= 1e-12

    @pytest.mark.parametrize("m", [15, 16])
    def test_grid_synthesis_repeats_with_sign(self, m):
        # exp(i lambda_k M) = (-1)^M on the grid: even M is periodic, odd M
        # changes sign after one period
        nu = random_grid_povm(make_rng(421), 2, m)
        x = synthesize_process(sample_gaussian_measure(nu, 3, seed=5), 3 * m)
        np.testing.assert_array_equal(
            x.values[:, m:2 * m], (-1.0) ** m * x.values[:, :m]
        )

    @pytest.mark.parametrize("support", ["jittered", "subset"])
    def test_off_grid_synthesis_takes_dense_path(self, support):
        rng = make_rng(422)
        m = 64
        freqs = grid_frequencies(m)
        if support == "jittered":
            freqs = freqs + 1e-9 * rng.uniform(-1.0, 1.0, m)
            freqs[-1] = np.pi - 0.5e-9
        else:
            freqs = np.delete(freqs, [0, 17])
        assert not on_grid(freqs)
        nu = AtomicTracePovm(2, freqs, random_povm(rng, 2, freqs.size).weights)
        w = sample_gaussian_measure(nu, 5, seed=6)
        x = synthesize_process(w, 3 * m)
        assert relative_error(x.values, explicit_synthesis(w, 3 * m)) <= 1e-12


class TestEmpiricalGramian:
    def test_constant_ensemble_gives_zero(self):
        u = np.ones((16, 3), dtype=complex)
        assert not empirical_gramian(u, u).any()

    def test_hermitian_symmetry_exact(self):
        rng = make_rng(413)
        u = random_complex(rng, (32, 3))
        v = random_complex(rng, (32, 2))
        c_uv = empirical_gramian(u, v)
        c_vu = empirical_gramian(v, u)
        np.testing.assert_allclose(c_uv, c_vu.conj().T, atol=1e-15)
        c_uu = empirical_gramian(u, u)
        assert np.abs(c_uu - c_uu.conj().T).max() <= 1e-15

    def test_covariance_monte_carlo(self):
        rng = make_rng(414)
        nu = random_povm(rng, 3, 1)
        n_real = 50_000
        w = sample_gaussian_measure(nu, n_real, seed=18)
        cov = empirical_gramian(w.samples[0], w.samples[0])
        scale = float(np.trace(nu.total_mass()).real)
        assert np.abs(cov - nu.weights[0]).max() <= 5.0 * scale / np.sqrt(n_real)

    def test_size_mismatch(self):
        with pytest.raises(SampleSizeError):
            empirical_gramian(np.ones((4, 2)), np.ones((5, 2)))


class TestIncrementPath:
    def test_single_atom_step_path(self):
        nu = AtomicTracePovm(2, [0.5], [np.eye(2)])
        w = sample_gaussian_measure(nu, 4, seed=19)
        path = to_increment_path(w)
        assert not path.value_at(0.4).any()
        np.testing.assert_array_equal(path.value_at(0.5), w.samples[0])
        np.testing.assert_array_equal(path.value_at(3.0), w.samples[0])

    def test_round_trip_exact(self):
        rng = make_rng(415)
        nu = random_povm(rng, 3, 6)
        w = sample_gaussian_measure(nu, 16, seed=20)
        back = from_increment_path(to_increment_path(w), nu)
        np.testing.assert_array_equal(back.samples, w.samples)
        path = to_increment_path(w)
        again = to_increment_path(from_increment_path(path, nu))
        np.testing.assert_array_equal(again.increments, path.increments)

    def test_cumulative_matches_partial_sums(self):
        rng = make_rng(416)
        nu = random_povm(rng, 2, 5)
        w = sample_gaussian_measure(nu, 8, seed=21)
        cum = to_increment_path(w).cumulative()
        expected = np.cumsum(w.samples, axis=0)
        np.testing.assert_array_equal(cum, expected)

    def test_from_cumulative_constructor(self):
        rng = make_rng(417)
        nu = random_povm(rng, 2, 4)
        w = sample_gaussian_measure(nu, 8, seed=22)
        path = to_increment_path(w)
        rebuilt = IncrementPath.from_cumulative(2, nu.freqs, path.cumulative())
        err = np.abs(rebuilt.increments - path.increments).max()
        assert err <= 1e-13 * max(1.0, np.abs(path.increments).max())

    def test_misaligned_breakpoints(self):
        rng = make_rng(418)
        nu = random_povm(rng, 2, 4)
        other = random_povm(rng, 2, 4)
        w = sample_gaussian_measure(nu, 8, seed=23)
        with pytest.raises(AlignmentError):
            from_increment_path(to_increment_path(w), other)

    def test_disjoint_increments_uncorrelated_monte_carlo(self):
        rng = make_rng(419)
        nu = random_povm(rng, 2, 6)
        n_real = 50_000
        w = sample_gaussian_measure(nu, n_real, seed=24)
        path = to_increment_path(w)
        freqs = nu.freqs
        mid = freqs[2] + (freqs[3] - freqs[2]) / 2.0
        left = path.value_at(mid)
        right = path.value_at(np.pi) - left
        cross = empirical_gramian(left, right)
        scale = float(np.trace(nu.total_mass()).real)
        assert np.abs(cross).max() <= 5.0 * scale / np.sqrt(n_real)
