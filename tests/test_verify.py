"""The battery's determinism rerun: the nine stochastic checks run again in
a fresh worker interpreter beside the first pass, and no worker outlives
``run_battery``."""

import dataclasses
import os
import time

import numpy as np
import pytest

from opspectra import verify
from opspectra.errors import PositivityError
from opspectra.filtering import pushforward_povm
from opspectra.synthetic import bundled_example_povm, make_rng, random_transfer
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
