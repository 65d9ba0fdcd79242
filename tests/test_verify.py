"""The battery's determinism rerun: the nine stochastic checks run again in
a fresh worker interpreter beside the first pass, and no worker outlives
``run_battery``."""

import dataclasses
import os
import time

import numpy as np
import pytest
from conftest import traced_peak

from opspectra import random_measure, verify
from opspectra.decomposition import ckl_decompose, hfpca_error, hfpca_projector
from opspectra.errors import DimensionError, PositivityError
from opspectra.filtering import apply_filter, pushforward_povm
from opspectra.povm import AtomicTracePovm
from opspectra.random_measure import (
    IncrementPath,
    _atom_rng,
    _draw_atom,
    _kernel,
    sample_gaussian_measure,
    spectral_integral,
    to_increment_path,
)
from opspectra.synthetic import (
    bundled_example_povm,
    make_rng,
    random_povm,
    random_transfer,
)
from opspectra.transfer import TransferFunction
from opspectra.verify import CheckResult, check_determinism


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestCompare:
    @pytest.fixture
    def baseline(self):
        return [
            CheckResult(f"check-{k}", "p", "pass", 0.5, 1.0, {"n": k, "z": 0.25})
            for k in range(len(verify.STOCHASTIC_CHECKS))
        ]

    def test_identical_reruns_pass(self, baseline):
        result = check_determinism(7, (), baseline, list(baseline))
        assert result.passed and result.details["mismatched"] == []

    def test_one_differing_detail_is_reported_by_id(self, baseline):
        reruns = list(baseline)
        reruns[4] = dataclasses.replace(baseline[4], details={"n": 4, "z": 0.5})
        result = check_determinism(7, (), baseline, reruns)
        assert result.status == "fail" and result.metric == 1.0
        assert result.details["mismatched"] == ["check-4"]


class TestExtraMeasure:
    def test_filtered_measure_reruns_bit_for_bit(self):
        # a filtered measure keeps Phi_j F_j as its Gram factors and the CKL
        # and HFPCA checks read them, so the worker must rebuild them too
        nu = bundled_example_povm()
        mu = pushforward_povm(random_transfer(make_rng(7), 3, 3, nu.freqs), nu)
        vals, vecs = mu.eigensystem()
        assert not np.array_equal(mu.gram_factors(), vecs * np.sqrt(vals)[:, None, :])
        determinism = verify.run_battery(20260809, povm=mu)[-1]
        assert determinism.details["mismatched"] == []
        assert determinism.passed

    def test_a_filter_to_fewer_dimensions_passes_hfpca(self, monkeypatch):
        # its factors Phi_j F_j have 3 columns in dim 2
        monkeypatch.setattr(verify, "MC_ENSEMBLE", verify.MC_BLOCK)
        nu = bundled_example_povm()
        mu = pushforward_povm(random_transfer(make_rng(7), 3, 2, nu.freqs), nu)
        result = verify.check_hfpca(20260809, (mu,))
        assert result.passed, result


def test_ckl_passes_on_an_eigenvalue_above_the_rank_cut():
    # 1e-13 of the atom's largest is kept by the factor, so the CKL ranks
    # must keep it too, else the completeness residual is sqrt(1e-13)
    nu = AtomicTracePovm(3, [0.0, 1.0], [np.diag([1.0, 1e-13, 0.5]), np.eye(3)])
    result = verify.check_ckl(20260809, (nu,))
    assert result.passed, result


def reference_mc_errors(nu, theta, seed):
    """The HFPCA check's Monte Carlo errors from whole ensembles: the sample,
    its filtered residual and one phase sum per time."""
    w = sample_gaussian_measure(nu, verify.MC_ENSEMBLE, seed)
    ops = np.eye(nu.dim) - theta.ops
    residual = apply_filter(TransferFunction(nu.dim, nu.dim, nu.freqs, ops), w).samples
    errors = []
    for t in verify.MC_TIMES:
        diff_t = np.tensordot(np.exp(1j * nu.freqs * t), residual, axes=(0, 0))
        errors.append(float(np.mean(np.sum(np.abs(diff_t) ** 2, axis=1))))
    return errors


def unblocked_mc_errors(nu, complement, seed):
    """The HFPCA check's Monte Carlo errors streamed atom by atom over all
    ``R`` rows at once: the same draws, products and sums in atom order,
    without row blocks."""
    shape = (verify.MC_ENSEMBLE, nu.dim)
    z, r, *sums = np.zeros((2 + len(verify.MC_TIMES), *shape), dtype=complex)
    phases = [np.exp(1j * nu.freqs * t) for t in verify.MC_TIMES]
    for j in range(nu.n_atoms):
        kernel = _kernel(nu.gram_factors()[j])
        normals = np.empty((shape[0], len(kernel)))
        _draw_atom(z, normals, kernel, _atom_rng(seed, j))
        np.matmul(z, complement[j].T, out=r)
        for acc, phase in zip(sums, phases):
            acc += r * phase[j]
    return [float(np.mean(np.sum(np.abs(acc) ** 2, axis=1))) for acc in sums]


def mc_cases():
    """A mixed-rank measure, the bundled one and a filtered one (its kept
    Gram factors are not its eigenfactors), each with a random HFPCA
    projector."""
    rng = make_rng(51)
    nu = bundled_example_povm()
    mixed = random_povm(rng, 4, 6, ranks=[1, 4, 2, 3, 4, 1])
    filtered = pushforward_povm(random_transfer(make_rng(7), 3, 3, nu.freqs), nu)
    for mu in (nu, mixed, filtered):
        q = rng.integers(1, mu.dim + 1, size=mu.n_atoms)
        yield mu, hfpca_projector(ckl_decompose(mu), q)


def peak_growth(monkeypatch, check, sizes):
    """How much the traced peak of ``check`` grows from an ensemble of
    ``sizes[0]`` realizations to one of ``sizes[1]``."""
    peaks = []
    for size in sizes:
        monkeypatch.setattr(verify, "MC_ENSEMBLE", size)
        peaks.append(traced_peak(check, 20260809))
    return peaks[1] - peaks[0]


class TestHfpcaMonteCarlo:
    """The HFPCA check integrates the modulated residual filter over the row
    blocks of the sampler's stream."""

    @pytest.fixture
    def small_ensemble(self, monkeypatch):
        monkeypatch.setattr(verify, "MC_ENSEMBLE", 2000)

    def test_streamed_errors_match_whole_ensembles(self, small_ensemble):
        for mu, theta in mc_cases():
            got = verify._hfpca_mc_errors(mu, np.eye(mu.dim) - theta.ops, 9)
            # the sums run in atom order, not in the BLAS product's order
            np.testing.assert_allclose(
                got, reference_mc_errors(mu, theta, 9), rtol=1e-13, atol=0.0
            )
            assert got == pytest.approx([hfpca_error(mu, theta)] * 3, rel=0.2)

    def test_blocks_match_the_unblocked_stream(self):
        # each row's squared norm is the same; the blocks' running totals
        # add them in another order than one mean over all rows
        assert verify.MC_ENSEMBLE % verify.MC_BLOCK == 0
        for mu, theta in mc_cases():
            complement = np.eye(mu.dim) - theta.ops
            np.testing.assert_allclose(
                verify._hfpca_mc_errors(mu, complement, 9),
                unblocked_mc_errors(mu, complement, 9),
                rtol=1e-13,
                atol=0.0,
            )

    def test_a_short_last_block_keeps_the_errors(self, monkeypatch):
        # a one-row product may round otherwise than the same row in a block
        monkeypatch.setattr(verify, "MC_ENSEMBLE", verify.MC_BLOCK + 1)
        for mu, theta in mc_cases():
            complement = np.eye(mu.dim) - theta.ops
            np.testing.assert_allclose(
                verify._hfpca_mc_errors(mu, complement, 9),
                unblocked_mc_errors(mu, complement, 9),
                rtol=1e-13,
                atol=0.0,
            )

    def test_peak_does_not_grow_with_the_ensemble(self, monkeypatch):
        # the check keeps one running total per time, nothing of length R
        sizes = (verify.MC_BLOCK, 5 * verify.MC_BLOCK)
        growth = peak_growth(monkeypatch, verify.check_hfpca, sizes)
        assert growth <= 64 * 1024

    def test_holds_less_than_one_ensemble(self, monkeypatch):
        monkeypatch.setattr(verify, "MC_ENSEMBLE", 5000)
        extra = random_povm(make_rng(5), 8, 64)
        one_ensemble = extra.n_atoms * verify.MC_ENSEMBLE * extra.dim * 16
        assert traced_peak(verify.check_hfpca, 20260809, (extra,)) < one_ensemble

    @pytest.mark.filterwarnings("error")
    def test_zero_measure_is_exact(self, small_ensemble):
        zero = AtomicTracePovm(2, [0.0, 1.0], np.zeros((2, 2, 2)))
        result = verify.check_hfpca(20260809, (zero,))
        assert result.details["mc_checks"] == 93
        assert result.details["mc_within_band"] == 93
        assert np.isfinite(result.details["worst_z_score"])
        assert result.passed


class TestExactStandardErrors:
    """The bands are in exact standard errors of one draw, so a sampler
    whose draws are scaled by a few percent fails them."""

    @pytest.mark.parametrize(
        "check, factor",
        [(verify.check_hfpca, 1.01), (verify.check_gramian_isometry, 1.03)],
        ids=["hfpca", "gramian-isometry"],
    )
    def test_a_scaled_sampler_fails_the_band(self, monkeypatch, check, factor):
        draw = random_measure._draw_atom

        def scaled(*args):
            out = draw(*args)
            out *= factor
            return out

        monkeypatch.setattr(random_measure, "_draw_atom", scaled)
        result = check(20260809, (bundled_example_povm(),))
        details = result.details
        n = details.get("mc_checks", details.get("mc_instances"))
        assert details["mc_within_band"] < np.ceil(0.95 * n)
        assert details["worst_z_score"] > 5.0
        assert not result.passed

    @pytest.mark.parametrize(
        "check", [verify.check_gramian_isometry, verify.check_increment_process],
        ids=["gramian-isometry", "increment-process"],
    )
    def test_a_shifted_sampler_fails_the_band(self, monkeypatch, check):
        # uncentred second moments see a mean the sampler should not have
        draw = random_measure._draw_atom

        def shifted(*args):
            out = draw(*args)
            out += 0.1
            return out

        monkeypatch.setattr(random_measure, "_draw_atom", shifted)
        result = check(20260809, (bundled_example_povm(),))
        assert not result.passed


class TestGramianIsometry:
    def test_one_ensemble_is_live_at_a_time(self, monkeypatch):
        # an instance holds one block of its ensemble and of the two
        # integrals, and one running sum; nothing of length R
        sizes = (2000, 10000)
        growth = peak_growth(monkeypatch, verify.check_gramian_isometry, sizes)
        assert growth <= 64 * 1024


class Stop(Exception):
    """Ends a check at its first Monte Carlo mean."""


def first_mc_instance(monkeypatch, check):
    """Run ``check`` at the battery seed up to its first Monte Carlo mean;
    return the measure and seed its stream got, the transfers it
    integrated, the row counts of the block measures the mean read, their
    samples concatenated, and the mean."""
    seen = {"transfers": [], "rows": [], "samples": []}
    blocks, mean = verify._sample_blocks, verify._mc_mean

    def spy_blocks(nu, n_realizations, seed, rows):
        seen.update(nu=nu, seed=seed)
        for block in blocks(nu, n_realizations, seed, rows):
            seen["rows"].append(block.shape[1])
            seen["samples"].append(block)
            yield block

    def spy_integral(phi, w):
        seen["transfers"].append(phi)
        return spectral_integral(phi, w)

    def stop(nu, seed, statistic):
        seen["mean"] = mean(nu, seed, statistic)
        seen["samples"] = np.concatenate(seen["samples"], axis=1)
        raise Stop

    monkeypatch.setattr(verify, "_sample_blocks", spy_blocks)
    monkeypatch.setattr(verify, "spectral_integral", spy_integral)
    monkeypatch.setattr(verify, "_mc_mean", stop)
    with pytest.raises(Stop):
        check(20260809)
    return seen


def isometry_reference(seen):
    """The two stochastic integrals over the whole ensemble."""
    w = sample_gaussian_measure(seen["nu"], verify.MC_ENSEMBLE, seen["seed"])
    phi, psi = seen["transfers"][:2]
    return spectral_integral(phi, w), spectral_integral(psi, w)


def increment_reference(seen):
    """The path's values left of the mid-point between the third and fourth
    atoms, and its increment right of it, over the whole ensemble."""
    nu = seen["nu"]
    w = sample_gaussian_measure(nu, verify.MC_ENSEMBLE, seen["seed"])
    path = to_increment_path(w)
    left = path.value_at(float(nu.freqs[2] + (nu.freqs[3] - nu.freqs[2]) / 2.0))
    return left, path.value_at(np.pi) - left


@pytest.mark.parametrize(
    "check, reference",
    [
        (verify.check_gramian_isometry, isometry_reference),
        (verify.check_increment_process, increment_reference),
    ],
    ids=["gramian-isometry", "increment-process"],
)
class TestMonteCarloStream:
    """Both checks read the block measures of the sampler's stream and add
    each block's sum of uncentred products ``u conj(v)^T`` into one mean;
    they keep nothing per realization."""

    @staticmethod
    def assert_mean_of_products(seen, reference):
        u, v = reference(seen)
        want = u.T @ v.conj() / verify.MC_ENSEMBLE
        np.testing.assert_allclose(seen["mean"], want, rtol=1e-13, atol=0.0)

    def test_blocks_give_the_whole_ensemble_bitwise(self, monkeypatch, check, reference):
        assert verify.MC_ENSEMBLE % verify.MC_BLOCK == 0
        seen = first_mc_instance(monkeypatch, check)
        assert seen["rows"] == [verify.MC_BLOCK] * (verify.MC_ENSEMBLE // verify.MC_BLOCK)
        whole = sample_gaussian_measure(seen["nu"], verify.MC_ENSEMBLE, seen["seed"])
        assert seen["samples"].tobytes() == whole.samples.tobytes()
        self.assert_mean_of_products(seen, reference)

    def test_a_short_last_block_keeps_the_arrays(self, monkeypatch, check, reference):
        # a one-row product may round otherwise than the same row in a block
        monkeypatch.setattr(verify, "MC_ENSEMBLE", verify.MC_BLOCK + 1)
        seen = first_mc_instance(monkeypatch, check)
        assert seen["rows"] == [verify.MC_BLOCK, 1]
        self.assert_mean_of_products(seen, reference)

    def test_peak_grows_by_the_kept_arrays_only(self, monkeypatch, check, reference):
        # the mean keeps one running sum, nothing of length R; an ensemble
        # of 4 or 6 atoms in dim 3 would grow by 12 or 18 complex floats
        # per realization
        growth = peak_growth(monkeypatch, check, (2000, 10000))
        assert growth <= 64 * 1024


def test_each_block_measure_holds_its_own_read_only_rows(monkeypatch):
    nu, rows = bundled_example_povm(), verify.MC_BLOCK
    monkeypatch.setattr(verify, "MC_ENSEMBLE", rows + 1)
    measures = []
    verify._mc_mean(nu, 5, lambda w: measures.append(w) or 0.0)
    first, last = measures
    assert [w.n_realizations for w in (first, last)] == [rows, 1]
    assert not (first.samples.flags.writeable or last.samples.flags.writeable)
    assert not np.shares_memory(first.samples, last.samples)
    whole = sample_gaussian_measure(nu, rows + 1, 5).samples
    np.testing.assert_allclose(
        np.concatenate([first.samples, last.samples], axis=1), whole, rtol=1e-13
    )


class TestIncrementRoundTrip:
    """``exact_round_trip`` compares the conversions with the samples: a
    wrong conversion makes it and the check fail."""

    @staticmethod
    def off_by_one(path, lam):
        # the value just below each breakpoint instead of at it
        k = int(np.searchsorted(path.breakpoints, lam, side="left"))
        return path.increments[:k].sum(axis=0)

    @staticmethod
    def shifted(path):
        increments = path.increments.copy()
        increments[-1, -1, 0] += 1.0
        return dataclasses.replace(path, increments=increments)

    @pytest.fixture(autouse=True)
    def small_ensemble(self, monkeypatch):
        monkeypatch.setattr(verify, "MC_ENSEMBLE", 2 * verify.MC_BLOCK)

    def test_correct_conversions_pass(self):
        result = verify.check_increment_process(20260809)
        assert result.details["exact_round_trip"] is True and result.passed

    @pytest.mark.parametrize("wrong", ["to_increment_path", "from_increment_path", "value_at"])
    def test_one_wrong_conversion_fails(self, monkeypatch, wrong):
        if wrong == "value_at":
            monkeypatch.setattr(IncrementPath, "value_at", self.off_by_one)
        elif wrong == "to_increment_path":
            convert = verify.to_increment_path
            monkeypatch.setattr(verify, wrong, lambda w: self.shifted(convert(w)))
        else:
            convert = verify.from_increment_path
            monkeypatch.setattr(
                verify, wrong, lambda p, nu: convert(self.shifted(p), nu)
            )
        result = verify.check_increment_process(20260809)
        assert result.details["exact_round_trip"] is False
        assert not result.passed


class TestWorker:
    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_a_bad_seed_is_refused_before_the_worker_starts(self, monkeypatch, seed):
        # the samplers' seed rule, applied before any check or worker runs
        started = []
        start = verify._start_rerun

        def spy(*args):
            started.append(args)
            return start(*args)

        monkeypatch.setattr(verify, "_start_rerun", spy)
        with pytest.raises(DimensionError, match="seed"):
            verify.run_battery(seed)
        assert started == []
        assert_no_child_left()

    def test_library_error_reaches_the_caller_with_its_type(self):
        class NotPsd:
            # unpickles as a measure whose second atom is not PSD, so the
            # worker's constructor refuses it while reading the request
            def __reduce__(self):
                return AtomicTracePovm, (1, [-1.0, 1.0], [[[1.0]], [[-1.0]]])

        start = time.monotonic()
        worker = verify._start_rerun(3, NotPsd())
        with pytest.raises(PositivityError):
            verify._rerun_results(worker)
        assert time.monotonic() - start < 5.0
        assert_no_child_left()

    def test_worker_without_a_payload_names_its_status(self):
        worker = verify._start_rerun(3, None)
        worker.kill()
        with pytest.raises(RuntimeError, match="status -9"):
            verify._rerun_results(worker)
        assert_no_child_left()

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_error_in_the_first_pass_kills_the_worker(self, monkeypatch, error):
        def failing(seed, extra):
            raise error("first check failed")

        checks = [failing] + verify.STOCHASTIC_CHECKS[1:]
        monkeypatch.setattr(verify, "STOCHASTIC_CHECKS", checks)
        start = time.monotonic()
        with pytest.raises(error, match="first check failed"):
            verify.run_battery(5)
        # the worker's own pass takes seconds; it was killed, not awaited
        assert time.monotonic() - start < 3.0
        assert_no_child_left()


class TestNonFiniteFails:
    """A NaN residual or z-score counts as inf, and a z against a standard
    deviation that overflowed is inf: either fails its check."""

    def test_a_nan_completeness_residual_fails_ckl(self, monkeypatch):
        monkeypatch.setattr(verify, "ckl_completeness_residual", lambda sys: np.nan)
        result = verify.check_ckl(20260809)
        assert result.metric == np.inf and not result.passed

    def test_a_nan_sample_entry_fails_filter_composition(self, monkeypatch):
        sample = verify.sample_gaussian_measure

        def with_nan(*args, **kwargs):
            w = sample(*args, **kwargs)
            samples = w.samples.copy()
            samples[0, 0, 0] = np.nan
            return dataclasses.replace(w, samples=samples)

        monkeypatch.setattr(verify, "sample_gaussian_measure", with_nan)
        result = verify.check_filter_composition(20260809)
        assert result.metric == np.inf and not result.passed

    @pytest.mark.parametrize("where", [0, 19], ids=["first", "last"])
    def test_a_nan_z_is_out_of_band(self, where):
        zs = [1.0] * 20
        zs[where] = np.nan
        inside, worst, in_band = verify._band_count(zs)
        assert (inside, worst, in_band) == (19, np.inf, False)

    @pytest.mark.parametrize("scale", [1e300, 1e306])
    def test_an_overflowed_standard_deviation_fails_hfpca(self, scale):
        nu = bundled_example_povm()
        big = AtomicTracePovm(nu.dim, nu.freqs, nu.weights * scale)
        result = verify.check_hfpca(20260809, (big,))
        assert result.details["worst_z_score"] == np.inf
        assert not result.passed

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e300, 1e306])
    def test_an_overflow_in_hfpca_is_scored_not_warned(self, scale):
        nu = bundled_example_povm()
        big = AtomicTracePovm(nu.dim, nu.freqs, nu.weights * scale)
        result = verify.check_hfpca(20260809, (big,))
        assert result.details["worst_z_score"] == np.inf
        assert not result.passed

    def test_a_nan_cross_moment_scores_inf(self, monkeypatch):
        monkeypatch.setattr(verify, "MC_ENSEMBLE", 2 * verify.MC_BLOCK)
        mean = verify._mc_mean

        def with_nan(*args):
            out = mean(*args)
            out[0, 0] = np.nan
            return out

        monkeypatch.setattr(verify, "_mc_mean", with_nan)
        result = verify.check_increment_process(20260809)
        assert result.metric == np.inf and not result.passed
