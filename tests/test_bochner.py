import numpy as np
import pytest

import opspectra.bochner as bochner_module
from opspectra import (
    AtomicTracePovm,
    AutocovarianceSequence,
    CoverageError,
    DimensionError,
    NotPositiveTypeError,
    SampleSizeError,
    autocov_from_povm,
    ckl_decompose,
    component_transfer,
    empirical_autocov,
    grid_frequencies,
    hermitian_nnd_check,
    positive_type_check,
    povm_from_autocov_grid,
    sample_gaussian_measure,
    scalar_component_transfer,
    synthesize_process,
)
from opspectra.bochner import on_grid
from opspectra.synthetic import (
    bundled_example_povm,
    make_rng,
    random_complex,
    random_grid_povm,
    random_povm,
)


def constant_sequence(op, max_lag):
    values = np.broadcast_to(op, (max_lag + 1,) + op.shape).copy()
    return AutocovarianceSequence(op.shape[0], max_lag, values)


class TestAutocovFromPovm:
    def test_single_atom_at_zero_is_constant(self):
        rng = make_rng(301)
        p = np.eye(2) + 0.0j
        nu = AtomicTracePovm(2, [0.0], [p])
        gamma = autocov_from_povm(nu, 6)
        for h in range(-6, 7):
            assert np.abs(gamma.gamma(h) - p).max() <= 1e-14

    def test_cosine_pair(self):
        p = np.diag([2.0, 1.0]).astype(complex)
        nu = AtomicTracePovm(2, [-np.pi / 2, np.pi / 2], [p / 2, p / 2])
        gamma = autocov_from_povm(nu, 8)
        for h in range(-8, 9):
            expected = np.cos(np.pi * h / 2) * p
            assert np.abs(gamma.gamma(h) - expected).max() <= 1e-12

    def test_lag_zero_is_total_mass(self):
        rng = make_rng(302)
        nu = random_povm(rng, 3, 6)
        gamma = autocov_from_povm(nu, 4)
        assert np.abs(gamma.gamma(0) - nu.total_mass()).max() <= 1e-12

    def test_hermitian_symmetry_exact(self):
        rng = make_rng(303)
        nu = random_povm(rng, 3, 5)
        gamma = autocov_from_povm(nu, 5)
        for h in range(1, 6):
            np.testing.assert_array_equal(
                gamma.gamma(-h), gamma.gamma(h).conj().T
            )

    def test_unaddressable_lag_count_is_a_dimension_error(self):
        # 2**62 + 1 lags of 3x3 operators take more bytes than numpy can
        # address, on the grid route and on the dense one; a numpy integer
        # count must not wrap in the size product
        for nu in (bundled_example_povm(), random_povm(make_rng(312), 3, 5)):
            for max_lag in (2**62, np.int64(2**62)):
                with pytest.raises(DimensionError, match=f"{2**62 + 1} lags"):
                    autocov_from_povm(nu, max_lag)

    def test_trace_dominated_by_lag_zero(self):
        rng = make_rng(304)
        nu = random_povm(rng, 3, 6)
        gamma = autocov_from_povm(nu, 10)
        t0 = np.trace(gamma.gamma(0)).real
        for h in range(1, 11):
            assert abs(np.trace(gamma.gamma(h))) <= t0 + 1e-12 * t0

    def test_coverage_error(self):
        rng = make_rng(305)
        gamma = autocov_from_povm(random_povm(rng, 2, 3), 2)
        with pytest.raises(CoverageError):
            gamma.gamma(3)


def explicit_autocov(freqs, weights, max_lag):
    """Oracle: the literal phase sum, one exp per (lag, atom) term."""
    out = np.zeros((max_lag + 1,) + weights.shape[1:], dtype=complex)
    for h in range(max_lag + 1):
        for lam, w in zip(freqs, weights):
            out[h] += np.exp(1j * lam * h) * w
    return out


def jittered_grid(rng, m, size=1e-9):
    # every atom moves by less than size, the last one down from pi
    freqs = grid_frequencies(m) + size * rng.uniform(-1.0, 1.0, m)
    freqs[-1] = np.pi - size / 2
    return freqs


def relative_error(got, ref):
    return np.abs(got - ref).max() / np.abs(ref).max()


class TestFourierRoutes:
    @pytest.mark.parametrize("m", [1, 2, 15, 16, 64])
    @pytest.mark.parametrize("lags", ["zero", "period", "wrapped"])
    def test_grid_autocov_matches_explicit_sum(self, m, lags):
        max_lag = {"zero": 0, "period": m - 1, "wrapped": 2 * m + 3}[lags]
        nu = random_grid_povm(make_rng((330, m)), 3, m)
        assert on_grid(nu.freqs)
        gamma = autocov_from_povm(nu, max_lag)
        ref = explicit_autocov(nu.freqs, nu.weights, max_lag)
        assert relative_error(gamma.values, ref) <= 1e-12

    def test_jittered_grid_takes_dense_path(self):
        # the DFT of the exact grid is ~1e-7 relative away at these lags
        rng = make_rng(331)
        m = 64
        freqs = jittered_grid(rng, m)
        assert not on_grid(freqs)
        nu = AtomicTracePovm(3, freqs, random_grid_povm(rng, 3, m).weights)
        gamma = autocov_from_povm(nu, 2 * m + 3)
        ref = explicit_autocov(freqs, nu.weights, 2 * m + 3)
        assert relative_error(gamma.values, ref) <= 1e-12

    def test_grid_subset_takes_dense_path(self):
        rng = make_rng(332)
        freqs = np.delete(grid_frequencies(16), [3, 9])
        assert not on_grid(freqs)
        nu = random_povm(rng, 3, freqs.size)
        nu = AtomicTracePovm(3, freqs, nu.weights)
        gamma = autocov_from_povm(nu, 40)
        ref = explicit_autocov(freqs, nu.weights, 40)
        assert relative_error(gamma.values, ref) <= 1e-12

    @pytest.mark.parametrize("m", [1, 16, 64])
    def test_grid_round_trip(self, m):
        nu = random_grid_povm(make_rng((333, m)), 4, m)
        recovered = povm_from_autocov_grid(autocov_from_povm(nu, m - 1), m)
        np.testing.assert_array_equal(recovered.freqs, nu.freqs)
        assert relative_error(recovered.weights, nu.weights) <= 1e-12

    def test_grid_path_builds_no_phase_matrix(self, monkeypatch):
        # the dense route exponentiates a (lags x atoms) array; the DFT
        # route must never build one
        sizes = []
        exp = np.exp

        def recorded(x, *args, **kwargs):
            sizes.append(np.size(x))
            return exp(x, *args, **kwargs)

        monkeypatch.setattr(np, "exp", recorded)
        m = 64
        rng = make_rng(334)
        nu = random_grid_povm(rng, 2, m)
        w = sample_gaussian_measure(nu, 4, seed=3)
        autocov_from_povm(nu, 2 * m + 3)
        synthesize_process(w, 3 * m)
        assert max(sizes, default=0) <= m
        autocov_from_povm(AtomicTracePovm(2, jittered_grid(rng, m), nu.weights), m - 1)
        assert max(sizes) >= m * m


class TestGridInversion:
    def test_constant_sequence_recovers_single_atom(self):
        p = np.diag([1.0, 3.0]).astype(complex)
        gamma = constant_sequence(p, 3)
        nu = povm_from_autocov_grid(gamma, 4)
        freqs = grid_frequencies(4)
        k0 = int(np.argmin(np.abs(freqs)))
        assert np.abs(nu.weights[k0] - p).max() <= 1e-12
        others = [k for k in range(4) if k != k0]
        assert np.abs(nu.weights[others]).max() <= 1e-12

    def test_round_trip_oracle(self):
        rng = make_rng(306)
        nu = random_grid_povm(rng, 3, 8)
        gamma = autocov_from_povm(nu, 7)
        recovered = povm_from_autocov_grid(gamma, 8)
        np.testing.assert_array_equal(recovered.freqs, nu.freqs)
        assert np.abs(recovered.weights - nu.weights).max() <= 1e-10

    def test_rejects_non_positive_type(self):
        values = np.stack(
            [np.eye(2) + 0.0j] + [2.0 * np.eye(2) + 0.0j] * 3
        )
        gamma = AutocovarianceSequence(2, 3, values)
        with pytest.raises(NotPositiveTypeError, match="atom"):
            povm_from_autocov_grid(gamma, 4)

    def test_slightly_negative_atom_is_not_positive_type(self):
        # the eigenvalue -5e-9 * trace passes a 1e-8 tolerance but not the
        # measure's own PSD validation, which is the one that applies
        m = 4
        freqs = grid_frequencies(m)
        weights = np.stack([np.eye(2, dtype=complex)] * m)
        weights[2] = np.diag([1.0, -5e-9])
        lags = np.arange(m)
        phases = np.exp(1j * np.outer(lags, freqs))
        gamma = AutocovarianceSequence(
            2, m - 1, np.einsum("hk,kab->hab", phases, weights)
        )
        message = r"atom 2 \(frequency \+1\.570796\)"
        with pytest.raises(NotPositiveTypeError, match=message):
            povm_from_autocov_grid(gamma, m)

    def test_insufficient_lags(self):
        rng = make_rng(307)
        gamma = autocov_from_povm(random_grid_povm(rng, 2, 8), 3)
        with pytest.raises(CoverageError):
            povm_from_autocov_grid(gamma, 8)


class TestPositiveType:
    def test_valid_povm_certified(self):
        rng = make_rng(308)
        nu = random_povm(rng, 2, 5)
        gamma = autocov_from_povm(nu, 5)
        assert positive_type_check(gamma, [0, 1, 3])

    def test_constructed_counterexample(self):
        values = np.stack([np.eye(2) + 0.0j, 1.5 * np.eye(2) + 0.0j])
        gamma = AutocovarianceSequence(2, 1, values)
        # block eigenvalues are 1 +- 1.5, so -0.5 shows up
        assert not positive_type_check(gamma, [0, 1])

    def test_single_time_reduces_to_psd(self):
        rng = make_rng(309)
        nu = random_povm(rng, 3, 4)
        gamma = autocov_from_povm(nu, 2)
        assert positive_type_check(gamma, [0])

    def test_random_time_sets_always_pass(self):
        rng = make_rng(311)
        nu = random_povm(rng, 2, 6)
        gamma = autocov_from_povm(nu, 12)
        for _ in range(10):
            n = int(rng.integers(1, 7))
            times = rng.choice(13, size=n, replace=False)
            assert positive_type_check(gamma, times)


def stored(gamma, h):
    """Reference ``Gamma(h)`` read straight from the stored lags."""
    return gamma.values[h] if h >= 0 else gamma.values[-h].conj().T


class TestLagTable:
    """Both certificates read ``Gamma(t_i - t_j)`` from one lag table."""

    @pytest.mark.parametrize(
        "times", [[4, 0, 2, 1], [3, 1, 3, 0, 1]], ids=["unsorted", "repeated"]
    )
    def test_block_matches_double_loop(self, times, monkeypatch):
        rng = make_rng(314)
        gamma = autocov_from_povm(random_povm(rng, 3, 5), 4)
        blocks = []
        monkeypatch.setattr(
            bochner_module, "psd_check", lambda block, tol: blocks.append(block)
        )
        positive_type_check(gamma, times)
        ref = np.block([[stored(gamma, ti - tj) for tj in times] for ti in times])
        np.testing.assert_array_equal(blocks[0], ref)

    @pytest.mark.parametrize(
        "times", [[4, 0, 2, 1], [3, 1, 3, 0, 1]], ids=["unsorted", "repeated"]
    )
    def test_nnd_sum_matches_double_loop(self, times, monkeypatch):
        rng = make_rng(315)
        gamma = autocov_from_povm(random_povm(rng, 2, 5), 4)
        a = random_complex(rng, len(times))
        sums = []
        check = bochner_module.psd_check
        monkeypatch.setattr(
            bochner_module, "psd_check",
            lambda op, tol: sums.append(op) or check(op, tol),
        )
        assert hermitian_nnd_check(gamma, times, a)
        ref = sum(
            a[i] * a[j].conjugate() * stored(gamma, ti - tj)
            for i, ti in enumerate(times)
            for j, tj in enumerate(times)
        )
        assert np.abs(sums[0] - ref).max() <= 1e-14 * np.abs(ref).max()

    @pytest.mark.parametrize(
        "check",
        [
            lambda gamma, times: positive_type_check(gamma, times),
            lambda gamma, times: hermitian_nnd_check(gamma, times, np.ones(len(times))),
        ],
        ids=["positive_type", "hermitian_nnd"],
    )
    def test_lag_beyond_max_lag(self, check):
        gamma = autocov_from_povm(random_povm(make_rng(316), 2, 3), 2)
        with pytest.raises(CoverageError, match=r"lag -3 outside stored range \+-2"):
            check(gamma, [0, 3, 1])

    def test_empty_time_list(self):
        gamma = autocov_from_povm(random_povm(make_rng(317), 2, 3), 2)
        with pytest.raises(DimensionError, match="at least one time point"):
            positive_type_check(gamma, [])

    def test_empty_time_list_is_no_hermitian_certificate(self):
        # the rule of positive_type_check: no time point, no certificate
        gamma = autocov_from_povm(random_povm(make_rng(317), 2, 3), 2)
        with pytest.raises(DimensionError, match="at least one time point"):
            hermitian_nnd_check(gamma, [], [])

    @pytest.mark.parametrize(
        "times", [[0.4, 1.9], [0, 1.0], [0, np.float64(1.0)], [True, 0]],
        ids=["fractional", "float", "numpy-float", "bool"],
    )
    def test_non_integer_times_rejected(self, times):
        gamma = autocov_from_povm(random_povm(make_rng(318), 1, 3), 2)
        with pytest.raises(DimensionError, match="must be integers"):
            positive_type_check(gamma, times)
        with pytest.raises(DimensionError, match="must be integers"):
            hermitian_nnd_check(gamma, times, np.ones(len(times)))
        with pytest.raises(DimensionError, match="must be integers"):
            gamma.gamma(times[0] if times[0] != 0 else times[1])

    def test_numpy_integer_times_accepted(self):
        gamma = autocov_from_povm(random_povm(make_rng(319), 2, 3), 2)
        times = np.array([2, 0, 1], dtype=np.int32)
        assert positive_type_check(gamma, times) == positive_type_check(gamma, [2, 0, 1])
        np.testing.assert_array_equal(gamma.gamma(np.int64(-2)), gamma.gamma(-2))


class TestAutocovarianceValues:
    def test_values_are_a_read_only_copy(self):
        v = np.ones((2, 1, 1), dtype=complex)
        g = AutocovarianceSequence(1, 1, v)
        v[0] = -5.0
        assert g.values[0, 0, 0] == 1.0
        assert not g.values.flags.writeable
        with pytest.raises(ValueError):
            g.values[0] = 2.0


class TestHermitianNnd:
    def test_single_coefficient(self):
        rng = make_rng(312)
        nu = random_povm(rng, 3, 4)
        gamma = autocov_from_povm(nu, 3)
        assert hermitian_nnd_check(gamma, [2], [1.0 + 0.5j])

    def test_valid_povm_random_coeffs(self):
        rng = make_rng(313)
        nu = random_povm(rng, 2, 5)
        gamma = autocov_from_povm(nu, 8)
        for _ in range(10):
            n = int(rng.integers(1, 5))
            times = rng.choice(9, size=n, replace=False)
            coeffs = random_complex(rng, n)
            assert hermitian_nnd_check(gamma, times, coeffs)

    def test_counterexample_fails(self):
        values = np.stack([np.eye(2) + 0.0j, 1.5 * np.eye(2) + 0.0j])
        gamma = AutocovarianceSequence(2, 1, values)
        assert not hermitian_nnd_check(gamma, [0, 1], [1.0, -1.0])


class TestCountArguments:
    """Grid sizes, lag counts, periods and component indices follow the one
    integer rule."""

    @pytest.mark.parametrize("m", [2.5, True, 4.0, "4", 0, -2])
    def test_grid_size(self, m):
        with pytest.raises(DimensionError):
            grid_frequencies(m)
        gamma = autocov_from_povm(bundled_example_povm(), 15)
        with pytest.raises(DimensionError):
            povm_from_autocov_grid(gamma, m)

    @pytest.mark.parametrize("max_lag", [2.5, True, 3.0, -1])
    def test_max_lag(self, max_lag):
        nu = bundled_example_povm()
        x = synthesize_process(sample_gaussian_measure(nu, 4, seed=1), 8)
        with pytest.raises(DimensionError):
            autocov_from_povm(nu, max_lag)
        with pytest.raises(DimensionError):
            empirical_autocov(x, max_lag)

    @pytest.mark.parametrize("count", [2.5, True, 1.0, 1.5])
    def test_period_and_component_index(self, count):
        nu = bundled_example_povm()
        with pytest.raises(DimensionError):
            synthesize_process(sample_gaussian_measure(nu, 4, seed=1), count)
        for build in (component_transfer, scalar_component_transfer):
            with pytest.raises(DimensionError):
                build(ckl_decompose(nu), count)

    def test_numpy_integers_accepted(self):
        nu = bundled_example_povm()
        x = synthesize_process(sample_gaussian_measure(nu, 4, seed=1), 8)
        np.testing.assert_array_equal(grid_frequencies(np.int64(16)), nu.freqs)
        gamma = autocov_from_povm(nu, np.int32(15))
        assert gamma.max_lag == 15
        assert povm_from_autocov_grid(gamma, np.int64(16)).n_atoms == 16
        assert empirical_autocov(x, np.int64(3))[0].max_lag == 3
        w = sample_gaussian_measure(nu, 4, seed=1)
        assert synthesize_process(w, np.int64(8)).period == 8
        assert component_transfer(ckl_decompose(nu), np.int64(1)).out_dim == 3


class TestEmpiricalAutocov:
    def test_zero_process(self):
        from opspectra import ProcessSample

        x = ProcessSample(2, 8, np.zeros((4, 8, 2), dtype=complex))
        gamma, se = empirical_autocov(x, 3)
        assert not gamma.values.any()
        assert se == pytest.approx(0.5)

    def test_requires_ensemble(self):
        from opspectra import ProcessSample

        x = ProcessSample(2, 8, np.zeros((1, 8, 2), dtype=complex))
        with pytest.raises(SampleSizeError):
            empirical_autocov(x, 3)

    def test_single_atom_monte_carlo(self):
        n_real = 50_000
        nu = AtomicTracePovm(2, [0.0], [np.eye(2)])
        w = sample_gaussian_measure(nu, n_real, seed=314)
        x = synthesize_process(w, 4)
        gamma, se = empirical_autocov(x, 2)
        band = 5.0 * se * 2.0
        for h in range(3):
            assert np.abs(gamma.gamma(h) - np.eye(2)).max() <= band

    def test_simulated_povm_monte_carlo(self):
        rng = make_rng(315)
        n_real = 50_000
        nu = random_grid_povm(rng, 2, 8)
        scale = float(np.trace(nu.total_mass()).real)
        w = sample_gaussian_measure(nu, n_real, seed=316)
        x = synthesize_process(w, 8)
        gamma_hat, se = empirical_autocov(x, 3)
        gamma = autocov_from_povm(nu, 3)
        band = 5.0 * se * scale
        for h in range(4):
            err = np.abs(gamma_hat.gamma(h) - gamma.gamma(h)).max()
            assert err <= band
