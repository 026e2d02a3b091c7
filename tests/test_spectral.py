import numpy as np
import pytest

from conftest import random_ground_truth
from spectralmix import model
from spectralmix.spectral import (
    NormalizedRows,
    row_normalize,
    top_k_eigs,
    top_singular_values,
)


def random_rank_k_omega(seed, n=60, K=3):
    rng = np.random.default_rng(seed)
    P, Pi, theta = random_ground_truth(rng, n, K)
    return model.build_omega(P, Pi, theta)


class TestTopKEigs:
    def test_diagonal_matrix(self):
        pair = top_k_eigs(np.diag([3.0, -2.0, 1.0]), 2)
        assert np.allclose(pair.eigenvalues, [3.0, -2.0])
        assert np.allclose(pair.U[:, 0], [1, 0, 0])
        assert np.allclose(pair.U[:, 1], [0, 1, 0])

    def test_reconstruction_of_rank_k(self):
        for seed in range(5):
            omega = random_rank_k_omega(seed)
            pair = top_k_eigs(omega, 3)
            normO = np.linalg.norm(omega)
            assert np.linalg.norm(omega @ pair.U - pair.U * pair.eigenvalues) <= 1e-8 * normO
            recon = pair.U @ np.diag(pair.eigenvalues) @ pair.U.T
            assert np.linalg.norm(recon - omega) <= 1e-6 * normO

    def test_magnitude_tie_positive_first(self):
        rng = np.random.default_rng(4)
        Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        M = Q @ np.diag([2.0, -2.0, 0.5]) @ Q.T
        pair = top_k_eigs(M, 2)
        assert pair.eigenvalues[0] == pytest.approx(2.0, abs=1e-10)
        assert pair.eigenvalues[1] == pytest.approx(-2.0, abs=1e-10)

    def test_orthonormal_columns(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            M = rng.normal(size=(40, 40))
            M = M + M.T
            pair = top_k_eigs(M, 4)
            assert np.linalg.norm(pair.U.T @ pair.U - np.eye(4)) <= 1e-8

    def test_positive_scaling_invariance(self):
        M = random_rank_k_omega(11)
        p1 = top_k_eigs(M, 3)
        p2 = top_k_eigs(4.0 * M, 3)
        assert np.allclose(p1.U, p2.U, atol=1e-8)
        assert np.allclose(4.0 * p1.eigenvalues, p2.eigenvalues, rtol=1e-12)

    def test_deterministic(self):
        M = random_rank_k_omega(12)
        p1 = top_k_eigs(M, 3)
        p2 = top_k_eigs(M, 3)
        assert np.array_equal(p1.U, p2.U)
        assert np.array_equal(p1.eigenvalues, p2.eigenvalues)

    def test_sign_convention(self):
        for seed in range(5):
            rng = np.random.default_rng(seed + 100)
            M = rng.normal(size=(30, 30))
            M = M + M.T
            pair = top_k_eigs(M, 5)
            for k in range(5):
                col = pair.U[:, k]
                assert col[np.argmax(np.abs(col))] > 0

    def test_iterative_path_matches_dense(self):
        M = random_rank_k_omega(13, n=120, K=3) + 1e-3 * np.eye(120)
        dense = top_k_eigs(M, 3)
        iterative = top_k_eigs(M, 3, dense_limit=50)
        assert np.allclose(dense.eigenvalues, iterative.eigenvalues, rtol=1e-8)
        assert np.allclose(np.abs(dense.U), np.abs(iterative.U), atol=1e-6)

    def test_iterative_path_repeatable(self):
        rng = np.random.default_rng(3)
        M = rng.normal(size=(300, 300))
        M = M + M.T
        p1 = top_k_eigs(M, 3, dense_limit=50)
        p2 = top_k_eigs(M, 3, dense_limit=50)
        assert np.array_equal(p1.U, p2.U)
        assert np.array_equal(p1.eigenvalues, p2.eigenvalues)

    def test_asymmetric_rejected(self):
        M = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            top_k_eigs(M, 1)

    def test_rank_deficiency_warns(self):
        M = np.diag([5.0, 0.0, 0.0])
        with pytest.warns(RuntimeWarning, match="rank"):
            top_k_eigs(M, 2)

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            top_k_eigs(np.eye(3), 4)


class TestRowNormalize:
    def test_three_four_five(self):
        out = row_normalize(np.array([[3.0, 4.0]]))
        assert np.allclose(out.matrix, [[0.6, 0.8]])
        assert out.row_norms[0] == pytest.approx(5.0)

    def test_idempotent_on_unit_rows(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(10, 3))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        out = row_normalize(X)
        assert np.allclose(out.matrix, X, atol=1e-14)
        assert out.degenerate == []

    def test_zero_row_flagged_and_replaced(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0]])
        out = row_normalize(X)
        assert out.degenerate == [0]
        assert np.array_equal(out.matrix[0], [1.0, 0.0])
        assert np.allclose(np.linalg.norm(out.matrix, axis=1), 1.0, atol=1e-10)


class TestTopSingularValues:
    def test_diagonal(self):
        assert np.allclose(top_singular_values(np.diag([5.0, 3.0, 1.0]), 3), [5, 3, 1])

    def test_symmetric_matches_eigen_magnitudes(self):
        M = random_rank_k_omega(21, n=40)
        sv = top_singular_values(M, 5)
        eig = np.sort(np.abs(np.linalg.eigvalsh(M)))[::-1][:5]
        assert np.allclose(sv, eig, rtol=1e-8, atol=1e-10)

    def test_iterative_matches_dense(self):
        rng = np.random.default_rng(5)
        M = rng.normal(size=(80, 80))
        dense = top_singular_values(M, 6)
        iterative = top_singular_values(M, 6, dense_limit=20)
        assert np.allclose(dense, iterative, rtol=1e-6)

    def test_iterative_repeatable(self):
        rng = np.random.default_rng(3)
        M = rng.normal(size=(300, 300))
        assert np.array_equal(top_singular_values(M, 6, dense_limit=50),
                              top_singular_values(M, 6, dense_limit=50))

    def test_nonincreasing(self):
        rng = np.random.default_rng(6)
        M = rng.normal(size=(30, 30))
        sv = top_singular_values(M, 10)
        assert np.all(np.diff(sv) <= 1e-12)
