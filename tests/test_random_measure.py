import numpy as np
import pytest

from opspectra import (
    AlignmentError,
    AtomicTracePovm,
    DimensionError,
    FirFilter,
    IncrementPath,
    IntegrabilityError,
    RandomMeasure,
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
    sample_real_gaussian_measure,
    spectral_integral,
    synthesize_process,
    to_increment_path,
)
from opspectra.bochner import on_grid
from opspectra.filtering import pushforward_povm
from opspectra.random_measure import _draw_atom, _real_kernels
from opspectra.synthetic import (
    bundled_example_povm,
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

    @pytest.mark.parametrize(
        "order", [[0, 0, 1], [0, 0] + list(range(2, 16)), list(range(1, 17))]
    )
    def test_atom_order_must_be_a_permutation(self, order):
        with pytest.raises(DimensionError, match="permutation"):
            sample_gaussian_measure(bundled_example_povm(), 4, 7, _atom_order=order)

    def test_requires_positive_ensemble(self):
        rng = make_rng(404)
        nu = random_povm(rng, 2, 2)
        with pytest.raises(SampleSizeError):
            sample_gaussian_measure(nu, 0, seed=7)


class TestUnaddressableCounts:
    """Counts whose output numpy cannot address are refused by name, as a
    :class:`DimensionError`, before any allocation."""

    def test_complex_sampling(self):
        with pytest.raises(DimensionError, match=f"{2**62} realizations"):
            sample_gaussian_measure(bundled_example_povm(), 2**62, 1)

    def test_real_sampling(self):
        nu = AtomicTracePovm(1, grid_frequencies(4), np.ones((4, 1, 1)))
        with pytest.raises(DimensionError, match=f"{2**62} realizations"):
            sample_real_gaussian_measure(nu, 2**62, 1)

    def test_synthesis(self):
        w = sample_gaussian_measure(bundled_example_povm(), 1, 1)
        with pytest.raises(DimensionError, match=f"{2**62} lags"):
            synthesize_process(w, 2**62)


def _grid_povm():
    return AtomicTracePovm(1, grid_frequencies(4), np.ones((4, 1, 1)))


class TestIntegerCounts:
    """Lags, shifts, realization counts and seeds are integers: a float or
    ``bool`` raises rather than being truncated."""

    @pytest.mark.parametrize("bad", [0.5, 1.0, True, np.float64(2.0)])
    @pytest.mark.parametrize("call", [
        lambda v: FirFilter({v: np.eye(1)}),
        lambda v: modulate_transfer(
            TransferFunction(1, 1, [0.0], np.ones((1, 1, 1))), v),
        lambda v: sample_gaussian_measure(bundled_example_povm(), v, 1),
        lambda v: sample_gaussian_measure(bundled_example_povm(), 2, v),
        lambda v: sample_real_gaussian_measure(_grid_povm(), v, 1),
        lambda v: sample_real_gaussian_measure(_grid_povm(), 2, v),
    ], ids=["tap-lag", "shift", "realizations", "seed", "real-realizations",
            "real-seed"])
    def test_non_integer_raises(self, call, bad):
        with pytest.raises(DimensionError, match="must be integers"):
            call(bad)

    @pytest.mark.parametrize("sampler,nu", [
        (sample_gaussian_measure, bundled_example_povm()),
        (sample_real_gaussian_measure, _grid_povm()),
    ], ids=["complex", "real"])
    def test_negative_seed_is_refused_by_name(self, sampler, nu):
        with pytest.raises(DimensionError, match="seed must be non-negative, got -1"):
            sampler(nu, 2, -1)

    def test_numpy_integers_accepted(self):
        nu = bundled_example_povm()
        two = np.int64(2)
        assert set(FirFilter({two: np.eye(1)}).taps) == {2}
        phi = TransferFunction(1, 1, [0.5], np.ones((1, 1, 1)))
        np.testing.assert_array_equal(
            modulate_transfer(phi, two).ops, modulate_transfer(phi, 2).ops
        )
        np.testing.assert_array_equal(
            sample_gaussian_measure(nu, two, np.int64(7)).samples,
            sample_gaussian_measure(nu, 2, 7).samples,
        )
        np.testing.assert_array_equal(
            sample_real_gaussian_measure(_grid_povm(), two, np.int64(7)).samples,
            sample_real_gaussian_measure(_grid_povm(), 2, 7).samples,
        )


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

    @pytest.mark.parametrize(
        "freqs", [[-np.pi + 1e-13, np.pi], [-1.6e-12, 0.9e-12]],
        ids=["near-pi", "near-zero"],
    )
    def test_rejects_one_sided_pairing(self, freqs):
        # atom 0 finds atom 1 as its mirror, but atom 1 pairs with itself
        nu = AtomicTracePovm(1, freqs, np.ones((2, 1, 1)))
        with pytest.raises(AlignmentError, match="atom 0"):
            sample_real_gaussian_measure(nu, 4, seed=27)

    def test_rejects_complex_endpoint_weight(self):
        from opspectra import DimensionError, sample_real_gaussian_measure

        w = np.array([[1.0, 0.5j], [-0.5j, 1.0]])
        nu = AtomicTracePovm(2, [0.0], [w])
        with pytest.raises(DimensionError):
            sample_real_gaussian_measure(nu, 4, seed=28)

    @pytest.mark.parametrize("scale", [1.0, 1e-12])
    @pytest.mark.parametrize(
        "freqs, weights",
        [
            ([-1.2, 1.2], [np.diag([1.0, 2.0]), np.diag([2.0, 1.0])]),
            ([0.0], [np.array([[1.0, 0.5j], [-0.5j, 1.0]])]),
        ],
        ids=["mirror-not-transposed", "complex-self-paired"],
    )
    def test_rejection_does_not_depend_on_scale(self, freqs, weights, scale):
        from opspectra import DimensionError, sample_real_gaussian_measure

        nu = AtomicTracePovm(2, freqs, scale * np.stack(weights).astype(complex))
        with pytest.raises(DimensionError):
            sample_real_gaussian_measure(nu, 4, seed=29)

    def test_tiny_symmetric_measure_synthesis_is_real(self):
        from opspectra import sample_real_gaussian_measure

        base = self._symmetric_povm(make_rng(422))
        nu = AtomicTracePovm(2, base.freqs, 1e-12 * base.weights)
        x = synthesize_process(sample_real_gaussian_measure(nu, 32, seed=30), 8)
        assert np.abs(x.values.imag).max() <= 1e-12 * np.abs(x.values.real).max()

    def test_leading_pair_atom_is_the_complex_sample(self):
        from opspectra import sample_real_gaussian_measure

        nu = self._symmetric_povm(make_rng(423))
        n_real = 20_000  # a large draw: R * dim = 40000
        real = sample_real_gaussian_measure(nu, n_real, seed=31).samples
        full = sample_gaussian_measure(nu, n_real, seed=31).samples
        # atom 0 (-1.2) leads the pair whose mirror is atom 2 (+1.2)
        np.testing.assert_array_equal(real[0], full[0])
        np.testing.assert_array_equal(real[2], full[0].conj())


# two draw sizes at dim 3: R * dim = 192 and 24576
SMALL_R = 64
LARGE_R = 8192


def philox_reference(seed, atom, n_real, dim):
    """Atom ``atom``'s standard complex Gaussians, drawn from its Philox
    substream as ``standard_normal((R, 2 dim))``: real parts first."""
    ss = np.random.SeedSequence(seed, spawn_key=(atom,))
    draws = np.random.Generator(np.random.Philox(ss)).standard_normal(
        (n_real, 2 * dim)
    )
    return np.sqrt(0.5) * (draws[:, :dim] + 1j * draws[:, dim:])


class TestThreadedSampling:
    """Small and large draws are the per-atom Philox draws, taken in any
    atom order on the calling thread."""

    def test_identity_weights_give_the_draws_bitwise(self):
        nu = AtomicTracePovm(3, [-2.0, -0.5, 1.0, 2.5], [np.eye(3)] * 4)
        for n_real in (SMALL_R, LARGE_R):
            w = sample_gaussian_measure(nu, n_real, seed=40)
            for j in range(4):
                np.testing.assert_array_equal(
                    w.samples[j], philox_reference(40, j, n_real, 3)
                )

    def test_random_weights_combine_the_draws(self):
        nu = random_povm(make_rng(440), 3, 4)
        roots = nu.sqrt_weights()
        for n_real in (SMALL_R, LARGE_R):
            w = sample_gaussian_measure(nu, n_real, seed=41)
            for j in range(4):
                ref = philox_reference(41, j, n_real, 3) @ roots[j].T
                assert relative_error(w.samples[j], ref) <= 1e-15

    def test_atom_order_gives_identical_samples(self):
        nu = random_povm(make_rng(441), 3, 5)
        a = sample_gaussian_measure(nu, LARGE_R, seed=42)
        b = sample_gaussian_measure(
            nu, LARGE_R, seed=42, _atom_order=[4, 2, 0, 3, 1]
        )
        np.testing.assert_array_equal(a.samples, b.samples)

    @pytest.mark.parametrize("n_real", [1, SMALL_R, LARGE_R])
    def test_one_atom_draw_writes_the_sampler_s_atom(self, n_real):
        """The per-atom routine, through buffers cut from storage sized for a
        larger dim as the HFPCA check cuts them, writes each atom's samples
        bit for bit, for a mixed-rank measure and a filtered one (its
        sampler roots are not its Gram factors)."""
        rng = make_rng(442)
        mixed = random_povm(rng, 3, 5, ranks=[1, 3, 2, 3, 1])
        filtered = pushforward_povm(random_transfer(rng, 3, 3, mixed.freqs), mixed)
        assert not np.array_equal(filtered.gram_factors(), filtered.sqrt_weights())
        store = np.empty((2, n_real * 5), dtype=complex)
        for nu in (mixed, filtered):
            w = sample_gaussian_measure(nu, n_real, seed=43)
            z, normals = (row[: n_real * 3].reshape(n_real, 3) for row in store)
            kernels = _real_kernels(nu.sqrt_weights())
            for j in range(nu.n_atoms):
                _draw_atom(z, normals.view(np.float64), kernels[j], 43, j)
                assert z.tobytes() == w.samples[j].tobytes()


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
        phi = TransferFunction(3, 2, nu.freqs, np.zeros((4, 2, 3)))
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
        ident = TransferFunction(3, 3, nu.freqs, np.tile(np.eye(3), (4, 1, 1)))
        modulated = modulate_transfer(ident, h)
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

    @pytest.mark.parametrize("lam", [np.nan, np.inf, -np.inf, 10.0, -3.2])
    def test_point_outside_the_circle_is_refused(self, lam):
        nu = AtomicTracePovm(1, [-1.0, 1.0], np.ones((2, 1, 1)))
        path = to_increment_path(sample_gaussian_measure(nu, 1, seed=19))
        with pytest.raises(DimensionError, match=r"\[-pi, pi\]"):
            path.value_at(lam)

    def test_ends_of_the_circle(self):
        nu = AtomicTracePovm(1, [-1.0, 1.0], np.ones((2, 1, 1)))
        w = sample_gaussian_measure(nu, 3, seed=19)
        path = to_increment_path(w)
        assert not path.value_at(-np.pi).any()
        np.testing.assert_array_equal(path.value_at(np.pi), w.samples.sum(axis=0))

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
        path = to_increment_path(w)
        cum = np.stack([path.value_at(lam) for lam in nu.freqs])
        np.testing.assert_allclose(cum, np.cumsum(w.samples, axis=0), rtol=1e-15)

    def test_misaligned_breakpoints(self):
        rng = make_rng(418)
        nu = random_povm(rng, 2, 4)
        other = random_povm(rng, 2, 4)
        w = sample_gaussian_measure(nu, 8, seed=23)
        with pytest.raises(AlignmentError):
            from_increment_path(to_increment_path(w), other)

    def test_path_of_another_dimension_is_rejected(self):
        nu = random_povm(make_rng(420), 3, 4)
        path = IncrementPath(2, nu.freqs, np.zeros((4, 5, 2)))
        with pytest.raises(DimensionError, match=r"\(4, R, 3\)"):
            from_increment_path(path, nu)

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


class TestRandomMeasureSupport:
    """The support and the space of a sampled measure are its intensity's."""

    @pytest.fixture
    def nu(self):
        return random_povm(make_rng(421), 3, 4)

    def test_support_read_from_intensity(self, nu):
        w = RandomMeasure(np.zeros((4, 5, 3)), nu)
        assert (w.dim, w.n_atoms, w.n_realizations) == (3, 4, 5)
        assert w.freqs is nu.freqs

    @pytest.mark.parametrize(
        "shape",
        [(3, 5, 3), (5, 5, 3), (4, 5, 2), (4, 5, 4), (4, 15), (4, 5, 3, 1)],
        ids=["fewer-atoms", "more-atoms", "smaller-dim", "larger-dim", "2-d", "4-d"],
    )
    def test_wrong_shape_is_rejected(self, nu, shape):
        with pytest.raises(DimensionError, match="samples must have shape"):
            RandomMeasure(np.zeros(shape), nu)
