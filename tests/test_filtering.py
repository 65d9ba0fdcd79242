import re

import numpy as np
import pytest
from conftest import traced_peak

import opspectra.povm as povm_module
from opspectra import (
    AlignmentError,
    AtomicTracePovm,
    DimensionError,
    FirFilter,
    IntegrabilityError,
    NonInvertibleError,
    TransferFunction,
    apply_filter,
    apply_fir_time,
    compose_transfer,
    fir_to_transfer,
    gramian_inner,
    invert_transfer,
    modulate_transfer,
    pushforward_povm,
    sample_gaussian_measure,
    square_integrability_check,
    synthesize_process,
)
from opspectra.bochner import on_grid
from opspectra.operators import sorted_eigh
from opspectra.povm import require_integrable
from opspectra.synthetic import (
    bundled_example_povm,
    haar_frame,
    make_rng,
    random_complex,
    random_conditioned_transfer,
    random_fir,
    random_grid_povm,
    random_povm,
    random_transfer,
)
from opspectra.transfer import DOMAIN_BLOCK


class TestCheckFilterable:
    def test_total_transfer_passes(self):
        rng = make_rng(501)
        nu = random_povm(rng, 3, 4)
        assert square_integrability_check(random_transfer(rng, 3, 2, nu.freqs), nu)

    def test_pinv_of_rank_deficient_fails_on_full_rank(self):
        rng = make_rng(502)
        nu = random_povm(rng, 3, 3)
        rank1 = np.zeros((3, 3), dtype=complex)
        rank1[1, 1] = 2.0
        pinv = np.linalg.pinv(rank1, rcond=1e-12)
        proj = rank1 @ pinv
        phi_inv = TransferFunction(
            3, 3, nu.freqs, np.stack([pinv] * 3), np.stack([proj] * 3)
        )
        assert not square_integrability_check(phi_inv, nu)

    def test_inverse_filterable_on_pushforward(self):
        rng = make_rng(503)
        nu = random_povm(rng, 3, 4, ranks=[3, 2, 3, 1])
        phi = random_conditioned_transfer(rng, 3, nu.freqs, cond=100)
        inv = invert_transfer(phi, nu)
        assert square_integrability_check(inv, pushforward_povm(phi, nu))

    def test_misaligned_frequencies(self):
        rng = make_rng(504)
        nu = random_povm(rng, 3, 4)
        phi = random_transfer(rng, 3, 2, nu.freqs + 0.01)
        with pytest.raises(AlignmentError):
            square_integrability_check(phi, nu)


class TestApplyFilter:
    def test_identity_keeps_samples(self):
        rng = make_rng(505)
        nu = random_povm(rng, 3, 4)
        w = sample_gaussian_measure(nu, 16, seed=30)
        ident = TransferFunction(3, 3, nu.freqs, np.tile(np.eye(3), (4, 1, 1)))
        out = apply_filter(ident, w)
        np.testing.assert_array_equal(out.samples, w.samples)

    def test_indicator_zeroes_other_atoms(self):
        rng = make_rng(506)
        nu = random_povm(rng, 3, 4)
        w = sample_gaussian_measure(nu, 16, seed=31)
        ops = np.zeros((4, 3, 3), dtype=complex)
        ops[1] = np.eye(3)
        out = apply_filter(TransferFunction(3, 3, nu.freqs, ops), w)
        np.testing.assert_array_equal(out.samples[1], w.samples[1])
        assert not out.samples[[0, 2, 3]].any()

    def test_per_atom_application_exact(self):
        rng = make_rng(507)
        nu = random_povm(rng, 3, 4)
        phi = random_transfer(rng, 3, 2, nu.freqs)
        w = sample_gaussian_measure(nu, 16, seed=32)
        out = apply_filter(phi, w)
        for j in range(4):
            expected = w.samples[j] @ phi.ops[j].T
            np.testing.assert_array_equal(out.samples[j], expected)

    def test_intensity_is_pushforward(self):
        rng = make_rng(508)
        nu = random_povm(rng, 3, 4)
        phi = random_transfer(rng, 3, 2, nu.freqs)
        w = sample_gaussian_measure(nu, 8, seed=33)
        out = apply_filter(phi, w)
        expected = pushforward_povm(phi, nu)
        np.testing.assert_array_equal(out.intensity.weights, expected.weights)

    def test_tiny_argument_outside_domain_rejected(self):
        phi = TransferFunction(
            2, 2, [0.0], [np.eye(2)], domains=[np.diag([1.0, 0.0])]
        )
        with pytest.raises(DimensionError):
            phi.apply(np.array([0.0, 1e-15]).reshape(1, 1, 2))

    def test_one_integrability_check_per_call(self, monkeypatch):
        rng = make_rng(529)
        nu = random_povm(rng, 3, 4, ranks=[3, 2, 3, 1])
        phi = random_conditioned_transfer(rng, 3, nu.freqs, cond=100)
        inv = invert_transfer(phi, nu)
        w = apply_filter(phi, sample_gaussian_measure(nu, 8, seed=34))
        calls = []
        check = povm_module._first_uncontained

        def counted(*args, **kwargs):
            calls.append(1)
            return check(*args, **kwargs)

        monkeypatch.setattr(povm_module, "_first_uncontained", counted)
        apply_filter(inv, w)
        assert len(calls) == 1


class TestPushforward:
    def test_identity(self):
        rng = make_rng(509)
        nu = random_povm(rng, 3, 4)
        ident = TransferFunction(3, 3, nu.freqs, np.tile(np.eye(3), (4, 1, 1)))
        out = pushforward_povm(ident, nu)
        assert np.abs(out.weights - nu.weights).max() <= 1e-12

    def test_unitary_preserves_traces(self):
        rng = make_rng(510)
        nu = random_povm(rng, 3, 3)
        u = haar_frame(rng, 3, 3)
        out = pushforward_povm(TransferFunction(3, 3, nu.freqs, np.tile(u, (3, 1, 1))), nu)
        for j in range(3):
            expected = u @ nu.weights[j] @ u.conj().T
            assert np.abs(out.weights[j] - expected).max() <= 1e-12
            assert np.trace(out.weights[j]).real == pytest.approx(
                np.trace(nu.weights[j]).real, rel=1e-12
            )

    def test_hilbert_schmidt_trace_oracle(self):
        rng = make_rng(511)
        nu = random_povm(rng, 3, 4)
        phi = random_transfer(rng, 3, 2, nu.freqs)
        out = pushforward_povm(phi, nu)
        factors = nu.gram_factors()
        for j in range(4):
            expected = np.linalg.norm(phi.ops[j] @ factors[j]) ** 2
            assert np.trace(out.weights[j]).real == pytest.approx(
                expected, abs=1e-12 * max(1.0, expected)
            )


class TestCompose:
    def test_identity_neutral(self):
        rng = make_rng(512)
        nu = random_povm(rng, 3, 4)
        phi = random_transfer(rng, 3, 3, nu.freqs)
        ident = TransferFunction(3, 3, nu.freqs, np.tile(np.eye(3), (4, 1, 1)))
        composed = compose_transfer(ident, phi)
        np.testing.assert_allclose(composed.ops, phi.ops, atol=1e-15)

    def test_pushforward_associativity(self):
        rng = make_rng(513)
        nu = random_povm(rng, 3, 4)
        phi = random_transfer(rng, 3, 2, nu.freqs)
        psi = random_transfer(rng, 2, 4, nu.freqs)
        direct = pushforward_povm(compose_transfer(psi, phi), nu)
        staged = pushforward_povm(psi, pushforward_povm(phi, nu))
        assert np.abs(direct.weights - staged.weights).max() <= 1e-12

    def test_two_path_filtering(self):
        rng = make_rng(514)
        nu = random_povm(rng, 3, 4)
        phi = random_transfer(rng, 3, 2, nu.freqs)
        psi = random_transfer(rng, 2, 4, nu.freqs)
        w = sample_gaussian_measure(nu, 16, seed=34)
        two_step = apply_filter(psi, apply_filter(phi, w))
        one_step = apply_filter(compose_transfer(psi, phi), w)
        scale = max(1.0, np.abs(two_step.samples).max())
        assert np.abs(two_step.samples - one_step.samples).max() <= 1e-12 * scale

    def test_composed_domain_is_preimage(self):
        rng = make_rng(515)
        # psi is partial: defined only on the range of a rank-1 weight
        proj = np.zeros((2, 2), dtype=complex)
        proj[0, 0] = 1.0
        freqs = np.array([0.0])
        psi = TransferFunction(
            2, 2, freqs, random_complex(rng, (1, 2, 2)), proj[None]
        )
        phi_op = random_complex(rng, (2, 3))
        phi = TransferFunction(3, 2, freqs, phi_op[None])
        composed = compose_transfer(psi, phi)
        dom = composed.domains[0]
        # vectors in the domain must be mapped by phi into span(e1)
        for _ in range(20):
            x = dom @ random_complex(rng, 3)
            y = phi_op @ x
            assert abs(y[1]) <= 1e-10 * max(1.0, np.linalg.norm(y))
        # the domain is as large as possible: its rank is 2 (preimage of a
        # 1-d subspace under a full-rank 2x3 map)
        rank = int(np.sum(np.linalg.eigvalsh(dom) > 0.5))
        assert rank == 2

    def test_inner_dim_mismatch(self):
        rng = make_rng(516)
        nu = random_povm(rng, 3, 4)
        phi = random_transfer(rng, 3, 2, nu.freqs)
        psi = random_transfer(rng, 3, 4, nu.freqs)
        with pytest.raises(DimensionError):
            compose_transfer(psi, phi)

    def test_filterability_transfer_equivalence(self):
        rng = make_rng(517)
        nu = random_povm(rng, 3, 4, ranks=[3, 1, 2, 3])
        phi = random_conditioned_transfer(rng, 3, nu.freqs, cond=50)
        push = pushforward_povm(phi, nu)
        inv = invert_transfer(phi, nu)
        # inv is partial; both routes must agree on every instance
        assert bool(square_integrability_check(inv, push)) == bool(
            square_integrability_check(compose_transfer(inv, phi), nu)
        )
        # and a genuinely failing psi fails both ways
        rank1 = np.zeros((3, 3), dtype=complex)
        rank1[0, 0] = 1.0
        pinv = np.linalg.pinv(rank1, rcond=1e-12)
        proj = rank1 @ pinv
        bad = TransferFunction(
            3, 3, nu.freqs, np.stack([pinv] * 4), np.stack([proj] * 4)
        )
        assert bool(square_integrability_check(bad, push)) == bool(
            square_integrability_check(compose_transfer(bad, phi), nu)
        )

    def test_gramian_isometric_embedding(self):
        rng = make_rng(518)
        nu = random_povm(rng, 3, 4)
        phi = random_transfer(rng, 3, 2, nu.freqs)
        psi = random_transfer(rng, 2, 3, nu.freqs)
        theta = random_transfer(rng, 2, 3, nu.freqs)
        lhs = gramian_inner(
            compose_transfer(psi, phi), compose_transfer(theta, phi), nu
        )
        rhs = gramian_inner(psi, theta, pushforward_povm(phi, nu))
        assert np.abs(lhs - rhs).max() <= 1e-12 * max(1.0, np.abs(rhs).max())


class TestInvert:
    def test_unitary_inverts_to_adjoint(self):
        rng = make_rng(519)
        nu = random_povm(rng, 3, 3)
        u = haar_frame(rng, 3, 3)
        phi = TransferFunction(3, 3, nu.freqs, np.tile(u, (3, 1, 1)))
        inv = invert_transfer(phi, nu)
        for j in range(3):
            assert np.abs(inv.ops[j] - u.conj().T).max() <= 1e-12

    def test_sample_round_trip(self):
        rng = make_rng(520)
        nu = random_povm(rng, 3, 4, ranks=[3, 2, 3, 1])
        phi = random_conditioned_transfer(rng, 3, nu.freqs, cond=100)
        w = sample_gaussian_measure(nu, 32, seed=35)
        back = apply_filter(invert_transfer(phi, nu), apply_filter(phi, w))
        scale = max(1.0, np.abs(w.samples).max())
        assert np.abs(back.samples - w.samples).max() <= 1e-8 * scale

    def test_pushforward_round_trip(self):
        rng = make_rng(521)
        nu = random_povm(rng, 3, 4, ranks=[3, 2, 3, 1])
        phi = random_conditioned_transfer(rng, 3, nu.freqs, cond=100)
        inv = invert_transfer(phi, nu)
        back = pushforward_povm(inv, pushforward_povm(phi, nu))
        assert np.abs(back.weights - nu.weights).max() <= 1e-8

    @pytest.mark.parametrize("e", [1e-13, 1e-11])
    def test_round_trip_keeps_a_small_supported_eigenvalue(self, e):
        # the direction of e is in the factor that samples nu, so it is in
        # the filtered samples and must be in the inverse's domain too
        nu = AtomicTracePovm(2, [0.0, 1.0], [np.diag([1.0, e]), np.eye(2)])
        phi = random_conditioned_transfer(make_rng(523), 2, nu.freqs, cond=10)
        w = sample_gaussian_measure(nu, 64, seed=37)
        back = apply_filter(invert_transfer(phi, nu), apply_filter(phi, w))
        assert np.abs(back.samples - w.samples).max() <= 1e-12 * np.abs(w.samples).max()

    def test_injective_on_support_only(self):
        rng = make_rng(522)
        # rank-1 atoms: any generic square map is injective on the support
        nu = random_povm(rng, 3, 2, ranks=[1, 1])
        phi = TransferFunction(3, 3, nu.freqs, random_complex(rng, (2, 3, 3)))
        w = sample_gaussian_measure(nu, 16, seed=36)
        back = apply_filter(invert_transfer(phi, nu), apply_filter(phi, w))
        scale = max(1.0, np.abs(w.samples).max())
        assert np.abs(back.samples - w.samples).max() <= 1e-8 * scale

    def test_strict_mode_rejects_rank_deficient(self):
        rng = make_rng(523)
        nu = random_povm(rng, 3, 2)
        ops = random_complex(rng, (2, 3, 3))
        ops[1] = np.diag([1.0, 1.0, 0.0])
        phi = TransferFunction(3, 3, nu.freqs, ops)
        with pytest.raises(NonInvertibleError, match="atom 1"):
            invert_transfer(phi, nu, strict=True)

    def test_default_rejects_non_injective_on_support(self):
        rng = make_rng(524)
        nu = random_povm(rng, 2, 1)  # full-rank support
        ops = np.zeros((1, 2, 2), dtype=complex)
        ops[0, 0, 0] = 1.0
        phi = TransferFunction(2, 2, nu.freqs, ops)
        with pytest.raises(NonInvertibleError):
            invert_transfer(phi, nu)

    def test_inverting_an_inverse_recovers_on_support(self):
        rng = make_rng(532)
        nu = random_povm(rng, 3, 3, ranks=[2, 3, 1])
        phi = random_conditioned_transfer(rng, 3, nu.freqs, cond=50)
        inv = invert_transfer(phi, nu)
        push = pushforward_povm(phi, nu)
        # the inverse is a partial transfer applicable to the pushforward
        twice = invert_transfer(inv, push)
        w = sample_gaussian_measure(nu, 16, seed=41)
        lhs = apply_filter(twice, w).samples
        rhs = apply_filter(phi, w).samples
        assert np.abs(lhs - rhs).max() <= 1e-10 * max(1.0, np.abs(rhs).max())

    def test_rejects_partial_transfer_outside_domain(self):
        from opspectra import IntegrabilityError

        rng = make_rng(533)
        nu = random_povm(rng, 3, 2)  # full-rank atoms
        rank1 = np.zeros((3, 3), dtype=complex)
        rank1[0, 0] = 1.0
        pinv = np.linalg.pinv(rank1, rcond=1e-12)
        proj = rank1 @ pinv
        phi = TransferFunction(
            3, 3, nu.freqs, np.stack([pinv] * 2), np.stack([proj] * 2)
        )
        with pytest.raises(IntegrabilityError):
            invert_transfer(phi, nu)

    @pytest.mark.parametrize("scale", [1e-100, 1e-16, 1e100])
    def test_round_trip_at_any_scale(self, scale):
        base = bundled_example_povm()
        nu = AtomicTracePovm(base.dim, base.freqs, scale * base.weights)
        assert nu.positive_mass_mask().sum() == 15
        rng = make_rng(534)
        phi = random_conditioned_transfer(rng, 3, nu.freqs, cond=100)
        w = sample_gaussian_measure(nu, 16, seed=42)
        back = apply_filter(invert_transfer(phi, nu), apply_filter(phi, w))
        assert np.abs(back.samples - w.samples).max() <= 1e-8 * np.abs(w.samples).max()

    def test_zero_mass_atom_maps_to_zero(self):
        nu = AtomicTracePovm(2, [-1.0, 1.0], [np.zeros((2, 2)), np.eye(2)])
        ops = np.stack([np.eye(2, dtype=complex)] * 2)
        phi = TransferFunction(2, 2, nu.freqs, ops)
        inv = invert_transfer(phi, nu)
        assert not inv.ops[0].any()


class TestFir:
    def test_single_center_tap(self):
        rng = make_rng(525)
        p = random_complex(rng, (2, 3))
        freqs = np.linspace(-2.0, 2.0, 5)
        phi = fir_to_transfer(FirFilter({0: p}), freqs)
        for j in range(5):
            np.testing.assert_array_equal(phi.ops[j], p)

    def test_single_delay_tap(self):
        freqs = np.array([-1.0, 0.5])
        phi = fir_to_transfer(FirFilter({1: np.eye(2)}), freqs)
        for j, lam in enumerate(freqs):
            expected = np.exp(-1j * lam) * np.eye(2)
            assert np.abs(phi.ops[j] - expected).max() <= 1e-15

    def test_two_tap_average_vanishes_at_pi(self):
        fir = FirFilter({0: np.eye(2) / 2, 1: np.eye(2) / 2})
        phi = fir_to_transfer(fir, np.array([np.pi]))
        assert np.abs(phi.ops[0]).max() <= 1e-15

    def test_identity_tap_time_domain(self):
        rng = make_rng(526)
        nu = random_grid_povm(rng, 2, 8)
        x = synthesize_process(sample_gaussian_measure(nu, 4, seed=37), 8)
        y = apply_fir_time(FirFilter({0: np.eye(2)}), x)
        np.testing.assert_array_equal(y.values, x.values)

    def test_delay_tap_rolls_time(self):
        rng = make_rng(527)
        nu = random_grid_povm(rng, 2, 8)
        x = synthesize_process(sample_gaussian_measure(nu, 4, seed=38), 8)
        y = apply_fir_time(FirFilter({1: np.eye(2)}), x)
        np.testing.assert_array_equal(y.values[:, 1:, :], x.values[:, :-1, :])
        np.testing.assert_array_equal(y.values[:, 0, :], x.values[:, -1, :])

    def test_fubini_two_path_oracle(self):
        rng = make_rng(528)
        m = 16
        nu = random_grid_povm(rng, 3, m)
        fir = random_fir(rng, 3, 2, n_taps=5)
        w = sample_gaussian_measure(nu, 8, seed=39)
        time_route = apply_fir_time(fir, synthesize_process(w, m))
        spec_route = synthesize_process(
            apply_filter(fir_to_transfer(fir, nu.freqs), w), m
        )
        scale = max(1.0, np.abs(time_route.values).max())
        err = np.abs(time_route.values - spec_route.values).max()
        assert err <= 1e-10 * scale


class TestModulate:
    def test_zero_shift_is_identity(self):
        rng = make_rng(529)
        nu = random_povm(rng, 3, 4)
        phi = random_transfer(rng, 3, 2, nu.freqs)
        np.testing.assert_array_equal(modulate_transfer(phi, 0).ops, phi.ops)

    def test_opposite_shifts_cancel(self):
        rng = make_rng(530)
        nu = random_povm(rng, 3, 4)
        phi = random_transfer(rng, 3, 2, nu.freqs)
        back = modulate_transfer(modulate_transfer(phi, 5), -5)
        assert np.abs(back.ops - phi.ops).max() <= 1e-15 * np.abs(phi.ops).max()

    def test_lag_oracle(self):
        rng = make_rng(531)
        nu = random_povm(rng, 2, 3)
        w = sample_gaussian_measure(nu, 8, seed=40)
        h = 2
        ident = TransferFunction(2, 2, nu.freqs, np.tile(np.eye(2), (3, 1, 1)))
        shifted = apply_filter(modulate_transfer(ident, h), w)
        x = synthesize_process(w, 8 + h)
        y = synthesize_process(shifted, 8)
        scale = max(1.0, np.abs(x.values).max())
        assert np.abs(y.values - x.values[:, h:, :]).max() <= 1e-12 * scale

    @pytest.mark.parametrize("h", [-5, -1, 1, 5])
    @pytest.mark.parametrize("grid", [True, False], ids=["grid", "off-grid"])
    def test_lag_intertwining(self, grid, h):
        # filtering with modulate_transfer(phi, h) synthesises the
        # phi-filtered process shifted by h, on the FFT and the dense route
        rng = make_rng(532)
        m = 16
        nu = random_grid_povm(rng, 3, m) if grid else random_povm(rng, 3, m)
        assert on_grid(nu.freqs) == grid
        phi = random_transfer(rng, 3, 2, nu.freqs)
        w = sample_gaussian_measure(nu, 4, seed=41)
        y = synthesize_process(apply_filter(modulate_transfer(phi, h), w), m).values
        x = synthesize_process(apply_filter(phi, w), m + max(h, 0)).values
        # compare the windows where both processes are observed
        shifted, plain = (y, x[:, h:]) if h >= 0 else (y[:, -h:], x[:, :m + h])
        scale = max(1.0, np.abs(x).max())
        assert np.abs(shifted - plain).max() <= 1e-12 * scale


def spectral_projector_ok(d, tol=1e-10):
    """Reference for the domain projector tests, one spectral norm per atom."""
    for dj in d:
        bound = tol * max(np.linalg.norm(dj, 2), 1.0)
        if np.linalg.norm(dj - dj.conj().T, 2) > bound:
            return False
        if np.linalg.norm(dj @ dj - dj, 2) > bound:
            return False
    return True


class TestProjectorScreen:
    """The Frobenius pre-screen of domain projectors decides as the
    spectral tests do, also where it cannot clear an atom itself."""

    @staticmethod
    def perturbed_stacks(kind):
        frame = haar_frame(make_rng(540), 4, 4)
        p = frame[:, :2] @ frame[:, :2].conj().T
        if kind == "hermitian":
            # anti-Hermitian across range and kernel, so d @ d - d is only
            # delta^2 e^2; four equal singular values: ||e||_F = 2 ||e||_2
            cross = frame[:, :2] @ frame[:, 2:].conj().T
            e = cross - cross.conj().T
        else:
            # Hermitian inside the range, two equal singular values:
            # d @ d - d = delta e + delta^2 e^2
            e = frame[:, :2] @ np.diag([1.0, -1.0]) @ frame[:, :2].conj().T
        # the defect grows linearly in the perturbation, to first order
        d = p + 1e-6 * e
        defect = d - d.conj().T if kind == "hermitian" else d @ d - d
        unit = np.linalg.norm(defect, 2) / 1e-6
        for ratio in (0.2, 0.4, 0.6, 0.9, 0.99, 1.01, 1.1, 2.0):
            # one perturbed atom among exact projectors
            d = np.stack([p, p + ratio * 1e-10 / unit * e, p, np.eye(4), np.zeros((4, 4))])
            yield ratio, d

    @pytest.mark.parametrize("kind", ["hermitian", "idempotent"])
    def test_accepts_exactly_when_spectral_reference_does(self, kind):
        decisions, frobenius_unsure = [], 0
        for ratio, d in self.perturbed_stacks(kind):
            ref = spectral_projector_ok(d)
            try:
                TransferFunction(4, 4, np.linspace(-1, 1, 5),
                                 np.zeros((5, 4, 4)), d)
                got = True
            except DimensionError as exc:
                assert kind in str(exc).lower()
                got = False
            assert got == ref, ratio
            decisions.append(got)
            sq, herm = d[1] @ d[1] - d[1], d[1] - d[1].conj().T
            if ref and max(np.linalg.norm(sq), np.linalg.norm(herm)) > 1e-10:
                frobenius_unsure += 1
        assert True in decisions and False in decisions
        # some accepted stacks were not cleared by the Frobenius bound alone
        assert frobenius_unsure >= 1


class TestTransferApply:
    def test_matches_per_atom_products(self):
        rng = make_rng(541)
        phi = random_transfer(rng, 3, 2, np.linspace(-1, 1, 4))
        x = random_complex(rng, (4, 5, 3))
        out = phi.apply(x)
        for j in range(4):
            np.testing.assert_array_equal(out[j], x[j] @ phi.ops[j].T)

    def test_error_names_first_atom_outside_domain(self):
        d = np.stack([np.eye(2), np.diag([1.0, 0.0]), np.eye(2), np.diag([1.0, 0.0])])
        phi = TransferFunction(2, 2, [-1.0, 0.0, 1.0, 2.0], d.astype(complex), d)
        x = np.ones((4, 3, 2), dtype=complex)
        x[1, :, 1] = 0.0
        with pytest.raises(DimensionError, match="at atom 3"):
            phi.apply(x)
        x[3, :, 1] = 0.0
        np.testing.assert_array_equal(phi.apply(x), x)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e-300, 1e-170, 1e-15, 1.0, 1e160, 1e300])
    def test_domain_test_is_scale_free(self, scale):
        # squares of the entries under- or overflow at these scales; the
        # decision must not
        phi = TransferFunction(2, 2, [0.0], [np.eye(2)], domains=[np.diag([1.0, 0.0])])
        for outside in ([0.0, scale], [1e-6 * scale, scale]):
            with pytest.raises(DimensionError, match="outside the domain"):
                phi.apply(np.array(outside).reshape(1, 1, 2))
        inside = np.array([[scale, 0.0], [scale, 1e-9 * scale], [0.0, 0.0]])
        np.testing.assert_array_equal(phi.apply(inside[None]), inside[None])
        # one row outside among rows of other scales is still found
        mixed = np.array([[1.0, 0.0], [0.0, scale], [1e300, 0.0]])
        with pytest.raises(DimensionError, match="at atom 0"):
            phi.apply(mixed[None])

    def test_domain_test_holds_one_block_of_atoms(self):
        # a partial transfer on 1 and on 8 blocks of atoms: the test holds
        # the defects and moduli of one block or two, whatever the atom count
        peaks = []
        for m in (DOMAIN_BLOCK, 8 * DOMAIN_BLOCK):
            d = np.tile(np.diag([1.0, 1.0, 0.0]).astype(complex), (m, 1, 1))
            phi = TransferFunction(3, 3, np.linspace(-3.0, 3.0, m), d, d)
            x = random_complex(make_rng(543), (m, 256, 3))
            x[..., 2] = 0.0
            peaks.append(traced_peak(phi.require_domain, x))
        one_block = DOMAIN_BLOCK * 256 * 3 * 16
        assert peaks[0] >= one_block
        assert peaks[1] - peaks[0] <= one_block

    def test_wrong_shape_rejected(self):
        phi = TransferFunction(2, 2, [0.0, 1.0], np.tile(np.eye(2), (2, 1, 1)))
        with pytest.raises(DimensionError):
            phi.apply(np.ones((3, 1, 2)))
        with pytest.raises(DimensionError):
            phi.apply(np.ones((2, 1, 3)))

    def test_freqs_are_a_read_only_copy(self):
        freqs = np.array([0.0, 1.0])
        phi = TransferFunction(1, 1, freqs, np.ones((2, 1, 1)))
        freqs[:] = 0.0
        np.testing.assert_array_equal(phi.freqs, [0.0, 1.0])
        assert not phi.freqs.flags.writeable
        with pytest.raises(ValueError):
            phi.freqs[0] = 2.0


NORM_SCALES = [1e-300, 1e-153, 1e-150, 1e-135, 1.0, 1e135, 1e150, 1e153, 1e300]


@pytest.mark.filterwarnings("error")
class TestScaleFreeNorms:
    """The domain test and the containment test decide the same whatever the
    scale of their input, through plain sums of squares inside the window
    and divided ones outside it, and warn at no scale."""

    @staticmethod
    def partial(m):
        d = np.tile(np.diag([1.0, 1.0, 0.0]).astype(complex), (m, 1, 1))
        return TransferFunction(3, 3, np.linspace(-3.0, 3.0, m), d, d)

    @staticmethod
    def named_atom(check, *args):
        try:
            check(*args)
        except (DimensionError, IntegrabilityError) as err:
            return int(re.search(r"atom:? (\d+)", str(err)).group(1))
        return None

    @pytest.mark.parametrize("scale", NORM_SCALES)
    def test_domain_test_decides_the_same_at_every_scale(self, scale):
        m = 2 * DOMAIN_BLOCK
        phi = self.partial(m)
        x = random_complex(make_rng(548), (m, 5, 3))
        x[..., 2] = 0.0
        x[3, 1] = 0.0  # a zero row passes
        row = np.linalg.norm(x, axis=2)
        decisions = []
        # outside components of 0.9 and 1.1 DOMAIN_TOL times the row's norm,
        # at one atom of the second block, then at one of each block
        for outside in ({}, {20: 0.9e-8}, {20: 1.1e-8}, {5: 1.1e-8, 20: 1.1e-8}):
            y = x.copy()
            for j, t in outside.items():
                y[j, 2, 2] = t * row[j, 2]
            decisions.append(self.named_atom(phi.require_domain, y * scale))
        assert decisions == [None, None, 20, 5]

    def test_tiny_row_outside_beside_huge_rows_inside_is_named(self):
        phi = self.partial(DOMAIN_BLOCK)
        x = 1e200 * random_complex(make_rng(549), (DOMAIN_BLOCK, 4, 3))
        x[..., 2] = 0.0
        x[7, 2] = [0.0, 0.0, 1e-200]
        assert self.named_atom(phi.require_domain, x) == 7
        x[7, 2] = [1e-200, 0.0, 0.0]
        assert self.named_atom(phi.require_domain, x) is None

    @pytest.mark.parametrize("scale", NORM_SCALES)
    def test_containment_decides_the_same_at_every_scale(self, scale):
        # atom 1 has zero mass and a zero domain; atom 2 leaks out of its
        # domain by 1e-3 of its factor
        phi = self.partial(3)
        domains = phi.domains.copy()
        domains[1] = 0.0
        phi = TransferFunction(3, 3, phi.freqs, phi.ops, domains)
        inside = np.diag([1.0, 2.0, 0.0])
        leaking = np.diag([1.0, 1.0, 1e-6])
        decisions = []
        for third in (inside, leaking):
            nu = AtomicTracePovm(3, phi.freqs, scale * np.stack([inside, 0 * inside, third]))
            decisions.append(self.named_atom(require_integrable, phi, nu))
        assert decisions == [None, 2]


def reference_inverse(phi, nu, rank_tol=1e-10, strict=False):
    """One SVD per positive-mass atom, as the inversion is defined: the
    support keeps the eigenvalues above ``256 eps`` of the atom's largest,
    and ``rank_tol`` is the injectivity threshold."""
    mask = nu.positive_mass_mask()
    vals, vecs = sorted_eigh(nu.weights)
    cut = 256.0 * np.finfo(np.float64).eps
    ops = np.zeros((phi.n_atoms, phi.in_dim, phi.out_dim), dtype=complex)
    domains = np.tile(np.eye(phi.out_dim, dtype=complex), (phi.n_atoms, 1, 1))
    for j in np.flatnonzero(mask):
        if strict:
            basis = np.eye(phi.in_dim)
        else:
            basis = vecs[j][:, vals[j] > cut * max(vals[j, 0], 0.0)]
        op = phi.ops[j] @ basis
        u, s, vh = np.linalg.svd(op, full_matrices=False)
        smin = s[-1] if s.size == op.shape[1] else 0.0
        if smin <= rank_tol * np.linalg.norm(phi.ops[j], 2):
            raise NonInvertibleError(f"atom {j}")
        ops[j] = basis @ (vh.conj().T / s) @ u.conj().T
        domains[j] = u @ u.conj().T
    return ops, domains


class TestStackedInversion:
    @staticmethod
    def case(out_dim):
        rng = make_rng(542)
        # rank-deficient supports and a zero-mass atom
        nu = random_povm(rng, 3, 6, ranks=[3, 1, 2, 0, 2, 1])
        if out_dim == 3:
            phi = random_conditioned_transfer(rng, 3, nu.freqs, cond=100)
        else:
            phi = random_transfer(rng, 3, out_dim, nu.freqs)
        return phi, nu

    @pytest.mark.parametrize(
        "out_dim,strict", [(3, False), (3, True), (4, False), (4, True), (2, False)]
    )
    def test_matches_per_atom_svd(self, out_dim, strict):
        phi, nu = self.case(out_dim)
        if out_dim == 2:
            # a support of rank 3 cannot be injected into two dimensions
            nu = AtomicTracePovm(3, nu.freqs, np.stack(
                [nu.weights[1]] * 3 + [nu.weights[3]] + [nu.weights[4]] * 2))
        assert not nu.positive_mass_mask()[3]
        inv = invert_transfer(phi, nu, strict=strict)
        ops, domains = reference_inverse(phi, nu, strict=strict)
        assert np.abs(inv.ops - ops).max() <= 1e-12 * np.abs(ops).max()
        assert np.abs(inv.domains - domains).max() <= 1e-12
        assert not inv.ops[3].any()
        np.testing.assert_array_equal(inv.domains[3], np.eye(out_dim))

    @pytest.mark.parametrize("strict", [False, True])
    def test_names_the_same_first_failing_atom(self, strict):
        phi, nu = self.case(3)
        ops = phi.ops.copy()
        # atom 3 has zero mass, so its zero operator is no failure
        ops[3] = 0.0
        # atoms 1 and 4 map a supported direction to zero
        for j in (1, 4):
            v = np.linalg.eigh(nu.weights[j])[1][:, -1]
            ops[j] = ops[j] - np.outer(ops[j] @ v, v.conj())
        phi = TransferFunction(3, 3, nu.freqs, ops)
        with pytest.raises(NonInvertibleError, match="^atom 1$"):
            reference_inverse(phi, nu, strict=strict)
        with pytest.raises(NonInvertibleError, match="^atom 1: operator is not"):
            invert_transfer(phi, nu, strict=strict)
        # once atom 1 is repaired, both name atom 4
        ops[1] = np.eye(3)
        phi = TransferFunction(3, 3, nu.freqs, ops)
        with pytest.raises(NonInvertibleError, match="^atom 4$"):
            reference_inverse(phi, nu, strict=strict)
        with pytest.raises(NonInvertibleError, match="^atom 4: operator is not"):
            invert_transfer(phi, nu, strict=strict)

    @pytest.mark.parametrize("smin", [0.5e-10, 0.99e-10, 1.01e-10, 1.3e-10, 2e-10])
    def test_gap_near_threshold_decides_as_reference(self, smin):
        # ||op||_2 = 1 while ||op||_F = sqrt(2): the threshold is spectral
        nu = random_povm(make_rng(545), 3, 3)
        frame = haar_frame(make_rng(546), 3, 3)
        ops = np.stack([np.eye(3, dtype=complex)] * 3)
        ops[1] = frame @ np.diag([1.0, 1.0, smin]) @ frame.conj().T
        phi = TransferFunction(3, 3, nu.freqs, ops)
        try:
            reference_inverse(phi, nu, strict=True)
            ref = True
        except NonInvertibleError:
            ref = False
        assert ref == (smin > 1e-10)
        if ref:
            invert_transfer(phi, nu, strict=True)
        else:
            with pytest.raises(NonInvertibleError, match="^atom 1: .* threshold 1.000e-10"):
                invert_transfer(phi, nu, strict=True)

    @pytest.mark.parametrize(
        "strict,smin",
        [(False, 0.1), (False, 0.5), (False, 0.9999), (False, 1.0001), (False, 1.01),
         (False, 1.5), (True, 0.5), (True, 0.9999), (True, 1.0 - 1e-8),
         (True, 1.0001), (True, 1.5)],
    )
    def test_certificate_boundaries_decide_as_the_spectral_norm(self, monkeypatch, strict, smin):
        # atom 1 is W diag(10, 2, smin) W^H on a measure supported on the last
        # two columns of W, with rank_tol 0.1: the supported top singular value
        # s_0 is 2 (10 in strict mode), ||op||_2 is 10 and ||op||_F is about
        # 10.25, so smin in (0.2, 1.025) lies between the two bounds, on either
        # side of the threshold 1; smin = 0.1 is refused and 1.5 cleared by
        # the bounds alone.  Atom 0 has zero mass and a zero operator.
        rank_tol = 0.1
        frame = haar_frame(make_rng(547), 3, 3)
        op = frame @ np.diag([10.0, 2.0, smin]) @ frame.conj().T
        support = frame[:, 1:]
        weights = np.stack([np.zeros((3, 3)), support @ support.conj().T])
        nu = AtomicTracePovm(3, [0.0, 1.0], weights)
        phi = TransferFunction(3, 3, nu.freqs, np.stack([np.zeros((3, 3)), op]))
        basis = np.eye(3) if strict else support
        gap = np.linalg.svd(op @ basis, compute_uv=False)[-1]
        threshold = rank_tol * np.linalg.norm(op, 2)
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(*args, **kwargs):
            calls.append(1)
            return eigvalsh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        if gap > threshold:
            inv = invert_transfer(phi, nu, rank_tol=rank_tol, strict=strict)
            np.testing.assert_allclose(inv.ops[1] @ op @ basis, basis, atol=1e-12)
            assert not inv.ops[0].any()
            if gap > rank_tol * np.linalg.norm(op):
                assert calls == []
        else:
            where = "" if strict else " on the supported subspace"
            message = (f"atom 1: operator is not injective{where} (singular value"
                       f" gap {gap:.3e} vs threshold {threshold:.3e})")
            with pytest.raises(NonInvertibleError) as err:
                invert_transfer(phi, nu, rank_tol=rank_tol, strict=strict)
            assert str(err.value) == message

    def test_svd_and_norm2_calls_independent_of_atom_count(self, monkeypatch):
        calls = {}
        svd, norm = np.linalg.svd, np.linalg.norm

        def counted_svd(*args, **kwargs):
            calls["svd"] = calls.get("svd", 0) + 1
            return svd(*args, **kwargs)

        def counted_norm(x, ord=None, *args, **kwargs):
            if ord == 2:
                calls["norm2"] = calls.get("norm2", 0) + 1
            return norm(x, ord, *args, **kwargs)

        counts = []
        for m in (8, 64):
            rng = make_rng(543)
            nu = random_povm(rng, 3, m, ranks=np.resize([1, 2, 3], m))
            phi = random_conditioned_transfer(rng, 3, nu.freqs, cond=100)
            filtered = apply_filter(phi, sample_gaussian_measure(nu, 4, seed=44))
            monkeypatch.setattr(np.linalg, "svd", counted_svd)
            monkeypatch.setattr(np.linalg, "norm", counted_norm)
            calls.clear()
            apply_filter(invert_transfer(phi, nu), filtered)
            counts.append(dict(calls))
            monkeypatch.undo()
        assert counts[0] == counts[1]


class TestPushforwardWeights:
    def test_gram_path_matches_checked_constructor(self):
        rng = make_rng(544)
        nu = random_povm(rng, 3, 5, ranks=[3, 1, 0, 2, 3])
        phi = random_transfer(rng, 3, 2, nu.freqs)
        push = pushforward_povm(phi, nu)
        checked = AtomicTracePovm(2, push.freqs, push.weights)
        np.testing.assert_array_equal(push.weights, checked.weights)
        assert not push.weights.flags.writeable
        assert not push.freqs.flags.writeable
        ref = [
            (b @ b.conj().T + (b @ b.conj().T).conj().T) / 2.0
            for b in phi.ops @ nu.gram_factors()
        ]
        np.testing.assert_array_equal(push.weights, ref)

    def test_gram_products_near_the_float_maximum_are_kept(self):
        # B B^H is finite; B B^H + its adjoint is not, so halve first
        factors = np.full((2, 1, 1), 1e154, dtype=complex)
        nu = AtomicTracePovm._from_factors(1, [0.0, 1.0], factors)
        np.testing.assert_array_equal(nu.weights, factors * factors)

    def test_non_finite_weights_rejected(self):
        # a non-finite factor, and finite factors whose Gram products overflow
        for big in (np.inf, 1e200):
            factors = np.ones((2, 1, 1), dtype=complex)
            factors[1] = big
            with pytest.raises(DimensionError, match="finite"):
                AtomicTracePovm._from_factors(1, [0.0, 1.0], factors)
