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
from opspectra.random_measure import (
    _atom_rng,
    _draw_atom,
    _real_kernels,
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


def unblocked_mc_errors(nu, complement, seed):
    """The HFPCA check's Monte Carlo errors streamed atom by atom over all
    ``R`` rows at once: the same draws, products and sums in atom order,
    without row blocks."""
    shape = (verify.MC_ENSEMBLE, nu.dim)
    normals = np.empty((shape[0], 2 * shape[1]))
    z, r, *sums = np.zeros((2 + len(verify.MC_TIMES), *shape), dtype=complex)
    kernels = _real_kernels(nu.sqrt_weights())
    phases = [np.exp(1j * nu.freqs * t) for t in verify.MC_TIMES]
    for j in range(nu.n_atoms):
        _draw_atom(z, normals, kernels[j], _atom_rng(seed, j))
        np.matmul(z, complement[j].T, out=r)
        for acc, phase in zip(sums, phases):
            acc += r * phase[j]
    return [float(np.mean(np.sum(np.abs(acc) ** 2, axis=1))) for acc in sums]


def mc_cases():
    """A mixed-rank measure, the bundled one and a filtered one (its sampler
    roots are not its Gram factors), each with a random HFPCA projector."""
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
    """The HFPCA check streams its Monte Carlo in row blocks, atom by atom."""

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

    def test_blocks_give_the_unblocked_stream_bitwise(self):
        assert verify.MC_ENSEMBLE % verify.MC_BLOCK == 0
        for mu, theta in mc_cases():
            complement = np.eye(mu.dim) - theta.ops
            got = verify._hfpca_mc_errors(mu, complement, 9)
            assert got == unblocked_mc_errors(mu, complement, 9)

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
        sizes = (verify.MC_BLOCK, 5 * verify.MC_BLOCK)
        # of what the check holds, only one float per time and realization
        # grows with R
        floats = 8 * len(verify.MC_TIMES) * (sizes[1] - sizes[0])
        growth = peak_growth(monkeypatch, verify.check_hfpca, sizes)
        assert growth <= floats + 64 * 1024

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


class TestGramianIsometry:
    def test_one_ensemble_is_live_at_a_time(self, monkeypatch):
        # an instance holds its ensemble of 4 atoms in dim 3, the two
        # integrals in dim 2 and one atom's term, 1.5 ensembles in all
        sizes = (2000, 10000)
        ensembles = 4 * (sizes[1] - sizes[0]) * 3 * 16
        growth = peak_growth(monkeypatch, verify.check_gramian_isometry, sizes)
        assert growth <= 1.5 * ensembles + 64 * 1024


class Stop(Exception):
    """Ends a check at its first empirical Gramian."""


def first_mc_instance(monkeypatch, check):
    """Run ``check`` at the battery seed up to its first ``empirical_gramian``
    call; return the measure and seed its stream got, the transfers it
    integrated and the Gramian's two arguments."""
    seen = {"transfers": []}
    stream = verify._mc_stream

    def spy_stream(nu, seed):
        seen.update(nu=nu, seed=seed)
        return stream(nu, seed)

    def spy_integral(phi, w):
        seen["transfers"].append(phi)
        return spectral_integral(phi, w)

    def stop(u, v):
        seen["args"] = (u.copy(), v.copy())
        raise Stop

    monkeypatch.setattr(verify, "_mc_stream", spy_stream)
    monkeypatch.setattr(verify, "spectral_integral", spy_integral)
    monkeypatch.setattr(verify, "empirical_gramian", stop)
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
    "check, reference, per_row",
    [
        # the two (R, 2) integrals
        (verify.check_gramian_isometry, isometry_reference, 2 * 2),
        # left, right and empirical_gramian's two centred copies, (R, 3) each
        (verify.check_increment_process, increment_reference, 4 * 3),
    ],
    ids=["gramian-isometry", "increment-process"],
)
class TestMonteCarloStream:
    """Both checks gather each row block of the stream into a block measure;
    what they keep per realization is what they pass to
    ``empirical_gramian``."""

    def test_blocks_give_the_whole_ensemble_bitwise(
        self, monkeypatch, check, reference, per_row
    ):
        assert verify.MC_ENSEMBLE % verify.MC_BLOCK == 0
        seen = first_mc_instance(monkeypatch, check)
        for got, want in zip(seen["args"], reference(seen), strict=True):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_a_short_last_block_keeps_the_arrays(
        self, monkeypatch, check, reference, per_row
    ):
        # a one-row product may round otherwise than the same row in a block
        monkeypatch.setattr(verify, "MC_ENSEMBLE", verify.MC_BLOCK + 1)
        seen = first_mc_instance(monkeypatch, check)
        for got, want in zip(seen["args"], reference(seen), strict=True):
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    def test_peak_grows_by_the_kept_arrays_only(
        self, monkeypatch, check, reference, per_row
    ):
        # an ensemble of 4 or 6 atoms in dim 3 would grow by 12 or 18
        # complex floats per realization
        sizes = (2000, 10000)
        growth = peak_growth(monkeypatch, check, sizes)
        assert growth <= 16 * per_row * (sizes[1] - sizes[0]) + 64 * 1024


class TestWorker:
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
