import numpy as np
import pytest

from opspectra import (
    AtomicTracePovm,
    DimensionError,
    PositivityError,
    outer,
    psd_check,
)
from opspectra.operators import _rank_cut, sorted_eigh
from opspectra.synthetic import make_rng, random_complex, random_psd


class TestOuter:
    def test_rank_one_projector(self):
        e1 = np.array([1.0, 0.0])
        np.testing.assert_array_equal(outer(e1, e1), [[1, 0], [0, 0]])

    def test_zero_vector(self):
        assert not outer(np.zeros(2), np.ones(3)).any()

    def test_definition_oracle(self):
        rng = make_rng(102)
        x = random_complex(rng, 4)
        y = random_complex(rng, 4)
        op = outer(x, y)
        for _ in range(50):
            z = random_complex(rng, 4)
            expected = np.vdot(y, z) * x
            assert np.abs(op @ z - expected).max() <= 1e-13


class TestPsdCheck:
    def test_identity(self):
        assert psd_check(np.eye(3), 1e-10)

    def test_negative_eigenvalue(self):
        assert not psd_check(np.diag([1.0, -1.0]), 1e-10)

    def test_gram_construction(self):
        rng = make_rng(103)
        a = random_complex(rng, (4, 4))
        assert psd_check(a @ a.conj().T, 1e-10)

    def test_zero_passes(self):
        assert psd_check(np.zeros((3, 3)), 1e-10)

    def test_non_hermitian_fails(self):
        assert not psd_check(np.array([[1.0, 1.0], [0.0, 1.0]]), 1e-10)

    def test_non_square_raises(self):
        with pytest.raises(DimensionError):
            psd_check(np.ones((2, 3)), 1e-10)


def factor(p):
    """The Gram factor of ``p`` through the one factor API: ``gram_factors``
    of a one-atom measure."""
    p = np.asarray(p, dtype=np.complex128)
    return AtomicTracePovm(p.shape[0], [0.0], p[None]).gram_factors()[0]


class TestPsdSqrt:
    """Gram factors ``F`` with ``F F^H = p`` (they replaced the positive
    roots): ``gram_factors``, which is ``V sqrt(vals)`` of the measure's
    cached eigensystem, cached and read-only."""

    def test_diagonal(self):
        # eigenvalues non-increasing: the columns are 3 e_2 and 2 e_1
        np.testing.assert_allclose(
            factor(np.diag([4.0, 9.0])), [[0.0, 2.0], [3.0, 0.0]], atol=1e-14
        )

    def test_zero(self):
        np.testing.assert_array_equal(factor(np.zeros((2, 2))), np.zeros((2, 2)))

    def test_squaring_oracle(self):
        rng = make_rng(104)
        p = random_psd(rng, 5)
        f = factor(p)
        # orthogonal columns: F^H F is the PSD diagonal of the eigenvalues
        gram = f.conj().T @ f
        assert psd_check(gram, 1e-10)
        assert np.abs(gram - np.diag(np.diag(gram))).max() <= 1e-12 * np.linalg.norm(p, 2)
        assert np.abs(f @ f.conj().T - p).max() <= 1e-10 * np.linalg.norm(p, 2)
        # the factor is V sqrt(vals) of the cached eigensystem, bit for bit,
        # cached and read-only
        nu = AtomicTracePovm(5, [0.0], p[None])
        vals, vecs = nu.eigensystem()
        np.testing.assert_array_equal(nu.gram_factors(), vecs * np.sqrt(vals)[:, None, :])
        assert nu.gram_factors() is nu.gram_factors()
        assert not nu.gram_factors().flags.writeable

    def test_rejects_indefinite(self):
        p = np.diag([1.0, -1.0])
        assert not psd_check(p)
        with pytest.raises(PositivityError):
            factor(p)

    def test_rank_deficient_root_has_clean_range(self):
        rng = make_rng(105)
        p = random_psd(rng, 4, rank=2)
        f = factor(p)
        s = np.linalg.svd(f, compute_uv=False)
        assert np.sum(s > 1e-10 * s[0]) == 2
        # round-off directions are clamped: the columns past the rank are zero
        assert not f[:, 2:].any()
        assert np.abs(f @ f.conj().T - p).max() <= 1e-12 * np.linalg.norm(p, 2)
        # the same holds for the rank rule on an unsorted eigensystem, whose
        # zero columns come first
        vals, vecs = _rank_cut(*np.linalg.eigh(p))
        f = vecs * np.sqrt(vals)
        assert not f[:, :2].any() and np.all(np.linalg.norm(f[:, 2:], axis=0) > 0)
        assert np.abs(f @ f.conj().T - p).max() <= 1e-12 * np.linalg.norm(p, 2)


def eig(h):
    """The single-operator case of the batched eigensolver."""
    vals, vecs = sorted_eigh(np.asarray(h, dtype=np.complex128)[None])
    return vals[0], vecs[0]


class TestHermitianEig:
    """``sorted_eigh`` on single operators."""

    def test_diagonal_permutation(self):
        vals, _ = eig(np.diag([1.0, 3.0, 2.0]))
        np.testing.assert_allclose(vals, [3.0, 2.0, 1.0], atol=1e-14)

    def test_degenerate_identity(self):
        vals, vecs = eig(np.eye(2))
        np.testing.assert_allclose(vals, [1.0, 1.0], atol=1e-14)
        gram = vecs.conj().T @ vecs
        assert np.abs(gram - np.eye(2)).max() <= 1e-12

    def test_reconstruction_oracle(self):
        rng = make_rng(109)
        a = random_complex(rng, (6, 6))
        h = (a + a.conj().T) / 2.0
        vals, vecs = eig(h)
        scale = np.linalg.norm(h, 2)
        assert np.abs((vecs * vals) @ vecs.conj().T - h).max() <= 1e-10 * scale

    def test_phase_convention(self):
        rng = make_rng(110)
        h = random_psd(rng, 5)
        _, vecs = eig(h)
        for col in vecs.T:
            lead = col[np.argmax(np.abs(col))]
            assert lead.real > 0
            assert abs(lead.imag) <= 1e-14 * abs(lead)

    def test_determinism_bitwise(self):
        rng = make_rng(111)
        h = random_psd(rng, 4)
        first = eig(h)
        second = eig(h.copy())
        np.testing.assert_array_equal(first[0], second[0])
        np.testing.assert_array_equal(first[1], second[1])
