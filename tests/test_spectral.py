import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse import csr_matrix

import spectralmix
from conftest import random_ground_truth, sweep_draw
from spectralmix import harness, model, spectral
from spectralmix.netio import load_edge_list
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


def sweep_draws_per_family():
    """Replicate 0 at rho=1.0 of experiments 1-4 (normal, bernoulli,
    poisson, signed) at n=400 and master seed 11."""
    return [sweep_draw(harness.experiment_config(e, master_seed=11), 1.0, 0)[0]
            for e in (1, 2, 3, 4)]


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

    @pytest.mark.skipif(not spectral._EIGSH_RNG,
                        reason="this scipy's eigsh takes no rng: the restart vector is not fixed")
    def test_repeatable_across_processes(self, tmp_path):
        # 15 disjoint edges and 10 triangles: the top eigenvalue 2 has
        # multiplicity 10 and the Krylov space closes early, so ARPACK asks
        # for a restart vector, which must be the same in every process
        A = np.zeros((60, 60))
        pairs = [(i, i + 1) for i in range(0, 30, 2)]
        pairs += [(t + a, t + b) for t in range(30, 60, 3) for a, b in ((0, 1), (1, 2), (0, 2))]
        i, j = np.array(pairs).T
        A[i, j] = A[j, i] = 1.0
        U = top_k_eigs(A, 3).U
        for _ in range(2):
            assert np.array_equal(top_k_eigs(A, 3).U, U)
        np.save(tmp_path / "A.npy", A)
        code = ("import sys, numpy as np; from spectralmix.spectral import top_k_eigs; "
                "sys.stdout.write(top_k_eigs(np.load(sys.argv[1]), 3).U.tobytes().hex())")
        src = Path(spectralmix.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
        for _ in range(2):
            out = subprocess.run([sys.executable, "-c", code, str(tmp_path / "A.npy")],
                                 capture_output=True, text=True, env=env, check=True).stdout
            assert out == U.tobytes().hex()

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
        # one n=400 draw per family, checked against the full symmetric solve
        for A in sweep_draws_per_family():
            vals, vecs = np.linalg.eigh(A)
            order = np.argsort(-np.abs(vals), kind="stable")
            mags = np.abs(vals[order])
            assert mags[2] - mags[3] > 1e-3 * mags[0]  # the K-th magnitude is not tied
            pair = top_k_eigs(A, 3)
            assert np.allclose(pair.eigenvalues, vals[order[:3]], rtol=1e-10, atol=0)
            assert np.allclose(np.abs(pair.U), np.abs(vecs[:, order[:3]]), rtol=0, atol=1e-8)

    def test_asymmetric_rejected(self):
        M = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            top_k_eigs(M, 1)

    def test_asymmetric_entry_past_the_first_strip_rejected(self):
        # the dense check takes M - M' a strip of rows at a time
        n = 1000
        assert model._row_strips(n)[0][1] < 900
        M = model.build_omega(*random_ground_truth(np.random.default_rng(3), n, 3))
        top_k_eigs(M, 3)
        M[900, 5] += 1e-6 * np.abs(M).max()
        with pytest.raises(ValueError, match="^matrix is not symmetric within tolerance$"):
            top_k_eigs(M, 3)

    def test_rank_deficiency_warns(self):
        M = np.diag([5.0, 0.0, 0.0])
        with pytest.warns(RuntimeWarning, match="rank"):
            top_k_eigs(M, 2)

    @pytest.mark.parametrize("K", [2, 4], ids=["lanczos", "full-solve"])
    def test_all_zero_rejected(self, K):
        with pytest.raises(ValueError, match="all zero"):
            top_k_eigs(np.zeros((4, 4)), K)

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            top_k_eigs(np.eye(3), 4)

    @pytest.mark.parametrize("M", [np.float64(3.0), 3.0, np.ones(3), np.ones((2, 2, 2))],
                             ids=["0-d-array", "scalar", "1-d", "3-d"])
    def test_not_two_dimensional_is_not_square(self, M):
        with pytest.raises(ValueError, match="^matrix must be square$"):
            top_k_eigs(M, 1)


def stored_zeros(n):
    """An n x n CSR matrix whose only stored entries are two zeros."""
    return csr_matrix(([0.0, 0.0], ([0, 1], [1, 0])), shape=(n, n))


class TestSparseInput:
    """A scipy.sparse matrix takes the dense input's checks and gives its answer."""

    @pytest.mark.parametrize("source,K", [("karate.tsv", 2), ("lesmis.tsv", 3),
                                          ("bernoulli-draw", 3)])
    def test_csr_matches_dense(self, data_dir, source, K):
        if source == "bernoulli-draw":
            draw, _ = sweep_draw(harness.experiment_config(2, master_seed=11), 1.0, 0)
            A = csr_matrix(draw)
        else:
            A = load_edge_list(data_dir / source).adjacency
        dense = A.toarray()
        mags = np.sort(np.abs(np.linalg.eigvalsh(dense)))[::-1]
        assert mags[K - 1] - mags[K] > 1e-3 * mags[0]  # the K-th magnitude is not tied
        sparse_pair, dense_pair = top_k_eigs(A, K), top_k_eigs(dense, K)
        assert np.allclose(sparse_pair.eigenvalues, dense_pair.eigenvalues, rtol=1e-12, atol=0)
        assert np.allclose(np.abs(sparse_pair.U), np.abs(dense_pair.U), rtol=0, atol=1e-8)
        assert sparse_pair.residual < 1e-12

    def test_full_solve_route_matches_dense(self):
        rng = np.random.default_rng(3)
        M = np.triu(rng.normal(size=(6, 6)) * (rng.random((6, 6)) < 0.5), 1)
        M = M + M.T
        for K in (5, 6):  # K >= n - 1 takes the full symmetric solve
            sparse_pair, dense_pair = top_k_eigs(csr_matrix(M), K), top_k_eigs(M, K)
            assert np.array_equal(sparse_pair.eigenvalues, dense_pair.eigenvalues)
            assert np.array_equal(sparse_pair.U, dense_pair.U)

    BOUNDARY = {
        "non-finite": (np.array([[0.0, np.nan, 1.0], [np.nan, 0.0, np.inf], [1.0, np.inf, 0.0]]),
                       1, r"4 non-finite entries, the first \(0,1\) = nan"),
        "stored-zeros-lanczos": (stored_zeros(4), 2, "all zero"),
        "stored-zeros-full-solve": (stored_zeros(4), 4, "all zero"),
        "asymmetric": (np.array([[1.0, 2.0], [0.0, 1.0]]), 1, "not symmetric"),
        "asymmetric-lower-larger": (np.array([[1.0, 0.0], [2.0, 1.0]]), 1,
                                    "^matrix is not symmetric within tolerance$"),
        "asymmetric-negative": (np.array([[1.0, -2.0], [0.0, 1.0]]), 1,
                                "^matrix is not symmetric within tolerance$"),
        "k-above-n": (np.eye(3), 4, "K=4 out of range"),
        "k-zero": (np.eye(3), 0, "K=0 out of range"),
        "non-square": (np.ones((2, 3)), 1, "matrix must be square"),
    }

    @pytest.mark.parametrize("case", BOUNDARY)
    def test_boundary_check_matches_dense(self, case):
        M, K, named = self.BOUNDARY[case]
        sparse, dense = (M, M.toarray()) if isinstance(M, csr_matrix) else (csr_matrix(M), M)
        with pytest.raises(ValueError, match=named) as dense_error:
            top_k_eigs(dense, K)
        with pytest.raises(ValueError, match=re.escape(str(dense_error.value)) + "$"):
            top_k_eigs(sparse, K)

    def test_asymmetry_within_tolerance_passes(self):
        M = np.diag([3.0, 2.0, 1.0, 0.5])
        M[1, 2], M[2, 1] = 1.0, 1.0 + 1e-9
        for given in (M, csr_matrix(M)):
            assert top_k_eigs(given, 2).eigenvalues.size == 2


def symmetric_pair_of_draws():
    """A dense 400x400 symmetric draw, and a 200-node CSR one with more
    than 10,000 stored entries: past that length OpenBLAS threads a dot."""
    rng = np.random.default_rng(8)
    dense = rng.normal(size=(400, 400))
    dense += dense.T
    upper = np.triu(rng.random((200, 200)) < 0.4, 1) * rng.normal(size=(200, 200))
    sparse = csr_matrix(upper + upper.T)
    assert sparse.nnz > 10_000
    return dense, sparse


def other_threads_cpu(seconds):
    """CPU time the process's other threads take while this one runs pure
    Python for ``seconds``."""
    p0, t0 = time.process_time(), time.thread_time()
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass
    return (time.process_time() - p0) - (time.thread_time() - t0)


class TestNormsWithoutBlas:
    """``top_k_eigs`` reports its residual without a BLAS call that wakes
    a worker pool; an OpenBLAS worker spins for about 60 ms after each."""

    def test_fits_leave_no_worker_spinning(self):
        dense, sparse = symmetric_pair_of_draws()
        time.sleep(0.2)  # let any pool an earlier test woke go idle
        spun = 0.0
        for M in (dense, dense, sparse, sparse):
            top_k_eigs(M, 3)
            spun += other_threads_cpu(0.1)
        assert spun < 0.05

    def test_residual_matches_linalg_norm(self):
        for M in symmetric_pair_of_draws():
            pair = top_k_eigs(M, 3)
            entries = M.data if isinstance(M, csr_matrix) else M
            want = np.linalg.norm(M @ pair.U - pair.U * pair.eigenvalues) / np.linalg.norm(entries)
            assert pair.residual == pytest.approx(want, rel=1e-12, abs=0)


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
        with pytest.warns(RuntimeWarning, match="rank"):
            sv = top_singular_values(M, 5)
        eig = np.sort(np.abs(np.linalg.eigvalsh(M)))[::-1][:5]
        assert np.allclose(sv, eig, rtol=1e-8, atol=1e-10)

    def test_iterative_matches_dense(self):
        for A in sweep_draws_per_family():
            sv = top_singular_values(A, 15)
            assert np.allclose(sv, np.linalg.svd(A, compute_uv=False)[:15], rtol=1e-10, atol=0)

    def test_nonincreasing(self):
        rng = np.random.default_rng(6)
        M = rng.normal(size=(30, 30))
        sv = top_singular_values(M + M.T, 10)
        assert np.all(np.diff(sv) <= 1e-12)
