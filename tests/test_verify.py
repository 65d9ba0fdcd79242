"""The battery's determinism rerun: the nine stochastic checks run again in
a fresh worker interpreter beside the first pass, and no worker outlives
``run_battery``."""

import dataclasses
import os
import time

import numpy as np
import pytest
from conftest import traced_peak

from opspectra import verify
from opspectra.decomposition import ckl_decompose, hfpca_error, hfpca_projector
from opspectra.errors import PositivityError
from opspectra.filtering import apply_filter, pushforward_povm
from opspectra.povm import AtomicTracePovm
from opspectra.random_measure import sample_gaussian_measure
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
        assert not np.array_equal(mu.gram_factors(), mu.sqrt_weights())
        determinism = verify.run_battery(20260809, povm=mu)[-1]
        assert determinism.details["mismatched"] == []
        assert determinism.passed


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


class TestHfpcaMonteCarlo:
    """The HFPCA check streams its Monte Carlo atom by atom."""

    @pytest.fixture
    def small_ensemble(self, monkeypatch):
        monkeypatch.setattr(verify, "MC_ENSEMBLE", 2000)

    def test_streamed_errors_match_whole_ensembles(self, small_ensemble):
        rng = make_rng(51)
        nu = bundled_example_povm()
        mixed = random_povm(rng, 4, 6, ranks=[1, 4, 2, 3, 4, 1])
        filtered = pushforward_povm(random_transfer(make_rng(7), 3, 3, nu.freqs), nu)
        # sized for a larger dim than any of these, as the check sizes them
        store = np.empty((6, verify.MC_ENSEMBLE * 5), dtype=complex)
        for mu in (nu, mixed, filtered):
            q = rng.integers(1, mu.dim + 1, size=mu.n_atoms)
            theta = hfpca_projector(ckl_decompose(mu), q)
            got = verify._hfpca_mc_errors(mu, np.eye(mu.dim) - theta.ops, 9, store)
            # the sums run in atom order, not in the BLAS product's order
            np.testing.assert_allclose(
                got, reference_mc_errors(mu, theta, 9), rtol=1e-13, atol=0.0
            )
            assert got == pytest.approx([hfpca_error(mu, theta)] * 3, rel=0.2)

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


class TestWorker:
    def test_library_error_reaches_the_caller_with_its_type(self):
        # the second atom is not PSD, so the worker's measure refuses it
        measure = (1, np.array([-1.0, 1.0]), np.array([[[1.0]], [[-1.0]]]), None)
        start = time.monotonic()
        worker = verify._start_rerun(3, measure)
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
