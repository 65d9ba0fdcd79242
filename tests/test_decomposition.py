import numpy as np
import pytest

from opspectra import (
    AtomicTracePovm,
    DimensionError,
    IntegrabilityError,
    TransferFunction,
    apply_filter,
    ckl_completeness_residual,
    ckl_component,
    ckl_decompose,
    ckl_scalar_component,
    component_transfer,
    empirical_gramian,
    gramian_inner,
    hfpca_error,
    hfpca_optimal_error,
    hfpca_projector,
    hfpca_report,
    invert_transfer,
    sample_gaussian_measure,
    scalar_component_transfer,
    spectral_integral,
    synthesize_process,
)
from opspectra.decomposition import hfpca_tie_warnings
from opspectra.synthetic import (
    bundled_example_povm,
    haar_frame,
    make_rng,
    random_conditioned_transfer,
    random_povm,
    random_transfer,
)


@pytest.mark.parametrize("ratio", np.logspace(-17, -6, 12))
def test_factor_ckl_and_inversion_share_one_rank(ratio):
    """An eigenvalue at ``ratio`` times its atom's largest, on either side
    of the rank cut, counts the same towards the factor's nonzero columns,
    the CKL rank and the rank of the inverse's domain."""
    rng = make_rng(640)
    u = haar_frame(rng, 3, 3)
    spectra = [[1.0, ratio, 0.5], [1.0, ratio, 0.0], [2.0, 2.0 * ratio, 1.0]]
    weights = [u @ np.diag(s) @ u.conj().T for s in spectra[:2]] + [np.diag(spectra[2])]
    nu = AtomicTracePovm(3, [-1.0, 0.5, 2.0], weights)
    phi = random_conditioned_transfer(rng, 3, nu.freqs, cond=10)
    domains = invert_transfer(phi, nu).domains
    domain_ranks = np.rint(np.trace(domains, axis1=1, axis2=2).real).astype(int)
    factor_ranks = nu.gram_factors().any(axis=1).sum(axis=1)
    np.testing.assert_array_equal(ckl_decompose(nu).ranks, factor_ranks)
    np.testing.assert_array_equal(domain_ranks, factor_ranks)


class TestCklDecompose:
    def test_diagonal_atoms_give_basis_vectors(self):
        nu = AtomicTracePovm(
            2, [-1.0, 1.0], [np.diag([0.3, 0.7]), np.diag([0.9, 0.1])]
        )
        sys = ckl_decompose(nu)
        np.testing.assert_allclose(sys.eigenvalues[0], [0.7, 0.3], atol=1e-14)
        np.testing.assert_allclose(sys.eigenvalues[1], [0.9, 0.1], atol=1e-14)
        assert np.abs(np.abs(sys.eigenvectors[0]) - np.eye(2)[:, ::-1]).max() <= 1e-12
        assert np.abs(np.abs(sys.eigenvectors[1]) - np.eye(2)).max() <= 1e-12

    def test_rank_one_atoms_single_component(self):
        rng = make_rng(601)
        nu = random_povm(rng, 3, 4, ranks=[1, 1, 1, 1])
        sys = ckl_decompose(nu)
        np.testing.assert_array_equal(sys.ranks, [1, 1, 1, 1])
        # completeness in measure norm holds although the pointwise sum of
        # projectors differs from the identity
        assert ckl_completeness_residual(sys) <= 1e-10
        projectors = sys.range_projectors()
        assert np.abs(projectors[0] - np.eye(3)).max() > 0.5

    def test_reconstruction_and_orthogonality(self):
        rng = make_rng(602)
        nu = random_povm(rng, 4, 5, ranks=[4, 2, 4, 3, 4])
        sys = ckl_decompose(nu)
        # per-atom reconstruction of the density
        for j in range(5):
            v = sys.eigenvectors[j]
            g = (v * sys.eigenvalues[j]) @ v.conj().T
            density = nu.weights[j] / max(np.trace(nu.weights[j]).real, 1e-300)
            assert np.abs(g - density).max() <= 1e-10
        # rank-one component filters are Gramian-orthogonal across levels
        for n in range(4):
            for p in range(n + 1, 4):
                cross = gramian_inner(
                    component_transfer(sys, n), component_transfer(sys, p), nu
                )
                assert np.abs(cross).max() <= 1e-12
        # scalar components are pairwise orthogonal as well
        for n in range(4):
            for p in range(n + 1, 4):
                cross = gramian_inner(
                    scalar_component_transfer(sys, n),
                    scalar_component_transfer(sys, p),
                    nu,
                )
                assert np.abs(cross).max() <= 1e-12

    def test_completeness_residual(self):
        rng = make_rng(603)
        nu = random_povm(rng, 4, 6, ranks=[4, 1, 3, 4, 2, 4])
        sys = ckl_decompose(nu)
        assert ckl_completeness_residual(sys) <= 1e-10


class TestCklComponents:
    def test_rank_one_atom_component_zero_is_whole_measure(self):
        rng = make_rng(604)
        nu = random_povm(rng, 3, 2, ranks=[1, 1])
        sys = ckl_decompose(nu)
        w = sample_gaussian_measure(nu, 16, seed=50)
        comp = ckl_component(w, sys, 0)
        scale = max(1.0, np.abs(w.samples).max())
        assert np.abs(comp.samples - w.samples).max() <= 1e-10 * scale

    def test_components_sum_to_measure_on_support(self):
        rng = make_rng(605)
        nu = random_povm(rng, 3, 4, ranks=[3, 1, 2, 3])
        sys = ckl_decompose(nu)
        w = sample_gaussian_measure(nu, 16, seed=51)
        total = sum(ckl_component(w, sys, n).samples for n in range(3))
        scale = max(1.0, np.abs(w.samples).max())
        assert np.abs(total - w.samples).max() <= 1e-10 * scale

    def test_model_cross_gramian_vanishes_atomwise(self):
        rng = make_rng(606)
        nu = random_povm(rng, 4, 4)
        sys = ckl_decompose(nu)
        for n in range(4):
            for p in range(4):
                if n == p:
                    continue
                for j in range(nu.n_atoms):
                    pn = component_transfer(sys, n).ops[j]
                    pp = component_transfer(sys, p).ops[j]
                    cross = pn @ nu.weights[j] @ pp.conj().T
                    assert np.abs(cross).max() <= 1e-12

    def test_empirical_component_cross_covariance(self):
        rng = make_rng(607)
        n_real = 50_000
        nu = random_povm(rng, 3, 3)
        sys = ckl_decompose(nu)
        w = sample_gaussian_measure(nu, n_real, seed=52)
        u = spectral_integral(component_transfer(sys, 0), w)
        v = spectral_integral(component_transfer(sys, 1), w)
        cross = empirical_gramian(u, v)
        scale = float(np.trace(nu.total_mass()).real)
        assert np.abs(cross).max() <= 5.0 * scale / np.sqrt(n_real)

    def test_scalar_components_diagonal_model_covariance(self):
        rng = make_rng(608)
        nu = random_povm(rng, 4, 5)
        sys = ckl_decompose(nu)
        cov = np.empty((4, 4), dtype=complex)
        for n in range(4):
            for p in range(4):
                cov[n, p] = gramian_inner(
                    scalar_component_transfer(sys, n),
                    scalar_component_transfer(sys, p),
                    nu,
                )[0, 0]
        off = cov - np.diag(np.diag(cov))
        assert np.abs(off).max() <= 1e-12

    def test_scalar_component_measure(self):
        rng = make_rng(620)
        nu = random_povm(rng, 3, 3)
        sys = ckl_decompose(nu)
        w = sample_gaussian_measure(nu, 8, seed=54)
        comp = ckl_scalar_component(w, sys, 1)
        assert comp.dim == 1
        for j in range(nu.n_atoms):
            expected = w.samples[j] @ sys.eigenvectors[j][:, 1].conj()
            np.testing.assert_array_equal(comp.samples[j][:, 0], expected)

    def test_index_out_of_range(self):
        rng = make_rng(609)
        sys = ckl_decompose(random_povm(rng, 3, 2))
        with pytest.raises(IndexError):
            component_transfer(sys, 3)


class TestHfpcaProjector:
    def test_full_rank_identity(self):
        rng = make_rng(610)
        nu = random_povm(rng, 3, 3)
        sys = ckl_decompose(nu)
        theta = hfpca_projector(sys, 3)
        for op in theta.ops:
            assert np.abs(op - np.eye(3)).max() <= 1e-10

    def test_rank_one_diagonal(self):
        nu = AtomicTracePovm(2, [0.0], [np.diag([0.9, 0.1])])
        theta = hfpca_projector(ckl_decompose(nu), 1)
        np.testing.assert_allclose(theta.ops[0], np.diag([1.0, 0.0]), atol=1e-12)

    def test_idempotence(self):
        rng = make_rng(611)
        nu = random_povm(rng, 5, 6)
        q = rng.integers(1, 6, size=6)
        theta = hfpca_projector(ckl_decompose(nu), q)
        for op in theta.ops:
            assert np.abs(op @ op - op).max() <= 1e-10
            assert np.abs(op - op.conj().T).max() <= 1e-10


class TestHfpcaError:
    def test_identity_projector_zero_error(self):
        rng = make_rng(612)
        nu = random_povm(rng, 3, 4)
        theta = TransferFunction(3, 3, nu.freqs, np.tile(np.eye(3), (4, 1, 1)))
        assert hfpca_error(nu, theta) <= 1e-12

    def test_non_applicable_family_rejected(self):
        rng = make_rng(611)
        nu = random_povm(rng, 3, 2)  # full-rank atoms
        proj = np.diag([1.0, 0.0, 0.0]).astype(complex)
        theta = TransferFunction(
            3, 3, nu.freqs, np.stack([proj] * 2), np.stack([proj] * 2)
        )
        with pytest.raises(IntegrabilityError, match="first failing atom: 0"):
            hfpca_error(nu, theta)

    def test_zero_projector_full_error(self):
        rng = make_rng(613)
        nu = random_povm(rng, 3, 4)
        theta = TransferFunction(3, 3, nu.freqs, np.zeros((4, 3, 3)))
        expected = float(np.trace(nu.total_mass()).real)
        assert hfpca_error(nu, theta) == pytest.approx(expected, rel=1e-12)

    def test_achieved_equals_closed_form(self):
        rng = make_rng(614)
        for _ in range(10):
            dim = int(rng.integers(2, 7))
            nu = random_povm(rng, dim, int(rng.integers(2, 6)))
            sys = ckl_decompose(nu)
            q = rng.integers(1, dim + 1, size=nu.n_atoms)
            achieved = hfpca_error(nu, hfpca_projector(sys, q))
            optimal = hfpca_optimal_error(sys, q)
            assert abs(achieved - optimal) <= 1e-10 * max(1.0, optimal)

    def test_brute_force_optimality(self):
        rng = make_rng(615)
        nu = random_povm(rng, 4, 4)
        sys = ckl_decompose(nu)
        q = rng.integers(1, 5, size=4)
        optimal = hfpca_optimal_error(sys, q)
        for _ in range(200):
            ops = np.empty((4, 4, 4), dtype=complex)
            for j in range(4):
                frame = haar_frame(rng, 4, int(q[j]))
                ops[j] = frame @ frame.conj().T
            competitor = TransferFunction(4, 4, nu.freqs, ops)
            assert hfpca_error(nu, competitor) >= optimal - 1e-12

    def test_monotonicity_in_rank(self):
        rng = make_rng(616)
        nu = random_povm(rng, 5, 3)
        sys = ckl_decompose(nu)
        errors = [hfpca_optimal_error(sys, q) for q in range(1, 6)]
        assert all(a >= b - 1e-12 for a, b in zip(errors, errors[1:]))

    def test_monte_carlo_reconstruction_error(self):
        rng = make_rng(617)
        n_real = 50_000
        nu = random_povm(rng, 3, 3)
        sys = ckl_decompose(nu)
        theta = hfpca_projector(sys, 2)
        expected = hfpca_error(nu, theta)
        w = sample_gaussian_measure(nu, n_real, seed=53)
        x = synthesize_process(w, 7)
        y = synthesize_process(apply_filter(theta, w), 7)
        scale = float(np.trace(nu.total_mass()).real)
        for t in (0, 3, 6):
            mse = float(
                np.mean(np.sum(np.abs(x.values[:, t] - y.values[:, t]) ** 2, axis=1))
            )
            assert abs(mse - expected) <= 5.0 * scale / np.sqrt(n_real)


class TestHfpcaReport:
    def test_report_fields(self):
        rng = make_rng(618)
        nu = random_povm(rng, 3, 3)
        report = hfpca_report(nu, 2)
        assert report["q"] == [2, 2, 2]
        assert report["achieved_error"] == pytest.approx(
            report["optimal_error"], abs=1e-10 * max(1.0, report["optimal_error"])
        )
        assert report["tie_warnings"] == []

    @pytest.mark.parametrize(
        "q", [1.9, [2.7] * 16, True, [True] * 16, [2] * 15 + [True], np.full(16, 2.0)]
    )
    def test_non_integer_ranks_rejected(self, q):
        with pytest.raises(DimensionError, match="target ranks must be integers"):
            hfpca_report(bundled_example_povm(), q)

    @pytest.mark.parametrize("q, ranks", [(10**23, 3), (np.int64(2), 2), ([1] * 16, 1)])
    def test_integer_ranks_clamp_to_dim(self, q, ranks):
        assert hfpca_report(bundled_example_povm(), q)["q"] == [ranks] * 16

    def test_tie_warning_on_degenerate_cut(self):
        nu = AtomicTracePovm(3, [0.0], [np.diag([0.5, 0.25, 0.25])])
        report = hfpca_report(nu, 2)
        assert len(report["tie_warnings"]) == 1
        assert report["tie_warnings"][0]["atom"] == 0

    def test_tie_warnings_match_loop_over_atoms(self):
        diagonals = [
            [0.5, 0.25, 0.25, 0.0],   # tie at the cut for q = 2
            [0.4, 0.3, 0.2, 0.1],     # no tie
            [0.25, 0.25, 0.25, 0.25],  # ties everywhere
            [1.0, 0.0, 0.0, 0.0],     # rank one, zeros tied below the cut
            [0.0, 0.0, 0.0, 0.0],     # zero mass
            [0.3, 0.3, 0.2, 0.2],     # tie above the cut only for q = 1
        ]
        nu = AtomicTracePovm(4, np.linspace(-2.0, 2.0, 6),
                             [np.diag(d) for d in diagonals])
        sys = ckl_decompose(nu)
        for q in (1, 2, 3, 4, [1, 2, 3, 4, 2, 1], [4, 3, 2, 1, 1, 3]):
            ranks = np.minimum(np.resize(q, 6), 4)
            expected = []
            for j in range(6):
                k = int(ranks[j])
                if k >= 4:
                    continue
                top = float(sys.eigenvalues[j].max(initial=0.0))
                gap = sys.eigenvalues[j][k - 1] - sys.eigenvalues[j][k]
                if gap <= 1e-9 * max(top, 1e-300):
                    expected.append({"atom": j, "freq": float(nu.freqs[j]), "rank": k,
                                     "tied_value": float(sys.eigenvalues[j][k])})
            got = hfpca_tie_warnings(sys, q)
            assert got == expected
            assert [type(v) for e in got for v in e.values()] == [
                type(v) for e in expected for v in e.values()
            ]
        assert len(hfpca_tie_warnings(sys, 2)) >= 3


class TestStackedSpectra:
    def test_linalg_calls_independent_of_atom_count(self, monkeypatch):
        # every per-atom spectrum comes from one stacked call, so the number
        # of numpy.linalg calls must not grow with the number of atoms
        inputs = [random_povm(make_rng(620), 3, m, ranks=np.resize([1, 2, 3], m))
                  for m in (8, 64)]
        calls = {}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)
            return wrapper

        for name in ("eigh", "eigvalsh", "svd", "norm"):
            monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
        counts = []
        for nu in inputs:
            calls.clear()
            nu = AtomicTracePovm(nu.dim, nu.freqs, nu.weights)
            nu.gram_factors()
            ckl_decompose(nu)
            hfpca_report(nu, 2)
            counts.append(dict(calls))
        assert counts[0] == counts[1]
        assert counts[0]["eigh"] >= 1

    def test_one_eigendecomposition_per_measure(self, monkeypatch):
        # the measure caches its one eigensystem, filtered measures carry
        # Gram factors, construction is certified by a Cholesky and the
        # injectivity threshold by norm bounds: the whole pipeline takes one
        # eigh (the cache) and one svd (the inversion), at any M and in
        # either mode of the inversion
        calls = {}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)
            return wrapper

        for name in ("eigh", "eigvalsh", "svd"):
            monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
        for m, strict in ((8, False), (64, False), (8, True), (64, True)):
            rng = make_rng(622)
            ref = random_povm(rng, 3, m, ranks=np.resize([1, 2, 3, 0], m))
            phi = random_transfer(rng, 3, 3, ref.freqs)
            calls.clear()
            nu = AtomicTracePovm(ref.dim, ref.freqs, ref.weights)
            assert calls == {}
            w = sample_gaussian_measure(nu, 10, seed=7)
            inverse = invert_transfer(phi, nu, strict=strict)
            apply_filter(inverse, apply_filter(phi, w))
            ckl_decompose(nu)
            hfpca_report(nu, 2)
            assert calls == {"eigh": 1, "svd": 1}, (m, strict)

    def test_construction_takes_no_svd(self, monkeypatch):
        # the Hermitian-defect tolerance is scaled by eigenvalues already in
        # hand, so validating a measure needs no SVD-based operator norm
        nu = random_povm(make_rng(621), 4, 64, ranks=np.resize([1, 2, 3, 4], 64))
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
        AtomicTracePovm(nu.dim, nu.freqs, nu.weights)
        assert calls == []
        np.linalg.norm(nu.weights, 2, axis=(-2, -1))
        assert calls == ["norm2"]
