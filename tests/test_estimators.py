import itertools

import numpy as np
import pytest

from conftest import random_ground_truth, sweep_draw
from spectralmix import harness, model
from spectralmix.estimators import EstimationError, dfsp, estimate, ideal_scd, scd
from spectralmix.metrics import l1_error_rate
from spectralmix.spectral import SpectralPair, top_k_eigs


def max_row_l1_up_to_permutation(Pi_hat, Pi):
    K = Pi.shape[1]
    return min(
        np.abs(Pi_hat[:, perm] - Pi).sum(axis=1).max()
        for perm in itertools.permutations(range(K))
    )


def random_instance(seed, n=None, K=None, **kwargs):
    rng = np.random.default_rng(seed)
    n = n or int(rng.integers(30, 120))
    K = K or int(rng.integers(2, 5))
    P, Pi, theta = random_ground_truth(rng, n, K, **kwargs)
    return model.build_omega(P, Pi, theta), Pi, K


class TestIdealScd:
    def test_exact_recovery_small(self):
        omega, Pi, K = random_instance(0, n=50, K=3)
        res = ideal_scd(omega, K)
        assert max_row_l1_up_to_permutation(res.Pi_hat, Pi) <= 1e-6

    def test_all_pure_identity_block(self):
        Pi = model.make_synthetic_membership(12, 3, 4)
        omega = model.build_omega(np.eye(3), Pi, np.ones(12))
        res = ideal_scd(omega, 3)
        assert max_row_l1_up_to_permutation(res.Pi_hat, Pi) <= 1e-10

    def test_negative_offdiagonal_block(self):
        P = np.array([[1.0, -0.2], [-0.2, 1.0]])
        Pi = model.make_synthetic_membership(30, 2, 10, [((0.7, 0.3), 10)])
        theta = model.make_theta(30, 1.0, "linear_ramp")
        omega = model.build_omega(P, Pi, theta)
        res = ideal_scd(omega, 2)
        assert max_row_l1_up_to_permutation(res.Pi_hat, Pi) <= 1e-8

    def test_corner_rows_are_basis_vectors(self):
        omega, Pi, K = random_instance(1, n=60, K=3)
        res = ideal_scd(omega, K)
        for idx in res.corner_set.indices:
            row = np.sort(res.Pi_hat[idx])
            assert row[-1] == pytest.approx(1.0, abs=1e-8)
            assert row[:-1].max() <= 1e-8

    def test_rank_mismatch_rejected(self):
        omega, _, K = random_instance(2, n=40, K=3)
        with pytest.raises(EstimationError, match="rank"):
            ideal_scd(omega, K + 1)
        with pytest.raises(EstimationError, match="rank"):
            ideal_scd(omega, K - 1)

    def test_negative_corner_spectrum_rejected(self):
        # negating a rank-K expectation matrix negates its corner-spectrum
        # diagonal: the oracle does not clamp it, it refuses the input
        cfg = harness.experiment_config(2, n=80, n0=8)
        theta = model.make_theta(80, 1.0, seed=3)
        omega = model.build_omega(cfg.block_matrix(), cfg.membership(), theta)
        with pytest.raises(EstimationError, match="corner-spectrum diagonal has negative "
                                                  "entries; input is not an exact rank-K"):
            ideal_scd(-omega, 3)


class TestScd:
    def test_noiseless_matches_ideal(self):
        for seed in range(5):
            omega, Pi, K = random_instance(seed + 10)
            ideal = ideal_scd(omega, K, seed=seed)
            empirical = scd(omega, K, seed=seed)
            diff = max_row_l1_up_to_permutation(empirical.Pi_hat, ideal.Pi_hat)
            assert diff <= 1e-6

    def test_simplex_rows(self):
        omega, Pi, K = random_instance(20, n=60, K=3)
        A = model.sample_adjacency(omega, model.EdgeDistribution("normal", 0.5), seed=1)
        res = scd(A, K, seed=0)
        assert np.all(res.Pi_hat >= 0)
        assert np.allclose(res.Pi_hat.sum(axis=1), 1.0, atol=1e-10)
        assert np.all(res.Z >= 0)

    def test_positive_rescaling_invariance(self):
        omega, Pi, K = random_instance(21, n=50, K=2)
        A = model.sample_adjacency(omega, model.EdgeDistribution("normal", 0.3), seed=2)
        r1 = scd(A, K, seed=3)
        r2 = scd(7.5 * A, K, seed=3)
        assert np.allclose(r1.Pi_hat, r2.Pi_hat, atol=1e-8)

    def test_isolated_node_uniform_and_flagged(self):
        omega, Pi, K = random_instance(22, n=40, K=2)
        A = model.sample_adjacency(omega, model.EdgeDistribution("normal", 0.2), seed=4)
        A[7, :] = 0.0
        A[:, 7] = 0.0
        res = scd(A, K, seed=0)
        assert 7 in res.degenerate_rows
        assert np.allclose(res.Pi_hat[7], 1.0 / K)

    def test_label_permutation_covariance(self):
        omega, Pi, K = random_instance(23, n=50, K=3, p_low=0.05)
        A = model.sample_adjacency(omega, model.EdgeDistribution("poisson"), seed=5)
        base = l1_error_rate(scd(A, K, seed=6).Pi_hat, Pi).l1_rate
        perm = np.array([2, 0, 1])
        Pi_perm = Pi[:, perm]
        again = l1_error_rate(scd(A, K, seed=6).Pi_hat, Pi_perm).l1_rate
        assert again == pytest.approx(base, abs=1e-12)

    def test_determinism(self):
        omega, _, K = random_instance(24, n=40, K=2)
        omega = omega / (1.01 * np.abs(omega).max())  # rescaled theta keeps validity
        A = model.sample_adjacency(omega, model.EdgeDistribution("signed"), seed=6)
        r1 = scd(A, K, seed=7)
        r2 = scd(A, K, seed=7)
        assert np.array_equal(r1.Pi_hat, r2.Pi_hat)
        assert np.array_equal(r1.corner_set.indices, r2.corner_set.indices)


class TestDfsp:
    def test_noiseless_pure_constant_theta(self):
        Pi = model.make_synthetic_membership(24, 3, 8)
        P = np.array([[1.0, 0.2, 0.1], [0.2, 1.0, 0.15], [0.1, 0.15, 1.0]])
        omega = model.build_omega(P, Pi, np.ones(24))
        res = dfsp(omega, 3)
        assert max_row_l1_up_to_permutation(res.Pi_hat, Pi) <= 1e-8

    def test_simplex_rows_on_noise(self):
        omega, Pi, K = random_instance(30, n=50, K=3)
        A = model.sample_adjacency(omega, model.EdgeDistribution("normal", 1.0), seed=8)
        res = dfsp(A, K)
        assert np.all(res.Pi_hat >= 0)
        assert np.allclose(res.Pi_hat.sum(axis=1), 1.0, atol=1e-10)

    def test_isolated_node_uniform(self):
        omega, Pi, K = random_instance(31, n=40, K=2)
        A = model.sample_adjacency(omega, model.EdgeDistribution("normal", 0.2), seed=9)
        A[3, :] = 0.0
        A[:, 3] = 0.0
        res = dfsp(A, K)
        assert 3 in res.degenerate_rows
        assert np.allclose(res.Pi_hat[3], 0.5)


class TestOracleEquivalenceSweep:
    def test_scd_equals_ideal_on_fifty_instances(self):
        # all four sign regimes of the block matrix appear across draws
        worst = 0.0
        for seed in range(50):
            omega, Pi, K = random_instance(seed + 100, n=None, K=None)
            ideal = ideal_scd(omega, K, seed=seed)
            empirical = scd(omega, K, seed=seed)
            worst = max(worst, max_row_l1_up_to_permutation(empirical.Pi_hat, ideal.Pi_hat))
        assert worst <= 1e-6


def test_estimate_dispatch():
    omega, Pi, K = random_instance(40, n=30, K=2)
    A = model.sample_adjacency(omega, model.EdgeDistribution("normal", 0.1), seed=0)
    assert estimate("scd", A, K, seed=0).method == "scd"
    assert estimate("dfsp", A, K, seed=0).method == "dfsp"
    with pytest.raises(ValueError, match="unknown method"):
        estimate("mixedscore", A, K)


@pytest.mark.parametrize("method", ["scd", "dfsp"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_shared_pair_gives_the_same_fit(method, seed):
    omega, Pi, K = random_instance(60 + seed, n=None, K=None)
    A = model.sample_adjacency(omega, model.EdgeDistribution("normal", 0.5), seed=seed)
    own = estimate(method, A, K, seed=seed)
    shared = estimate(method, A, K, seed=seed, pair=top_k_eigs(A, K))
    assert np.array_equal(shared.Pi_hat, own.Pi_hat)
    assert np.array_equal(shared.corner_set.indices, own.corner_set.indices)
    assert np.array_equal(shared.Z, own.Z)


def test_noise_floor_diagonal_does_not_decide_the_fit():
    # experiment 2, rho=0.1, replicate 13 at master seed 11: the top 3 holds
    # an eigenvalue pair +l, -l, and a corner row weighs both equally, so its
    # corner-spectrum diagonal is zero up to rounding. The Lanczos and the
    # full-solve eigenvectors agree to about 1e-15; the fits must agree too.
    cfg = harness.experiment_config(2, replicates=50, master_seed=11)
    A, seed = sweep_draw(cfg, 0.1, 13)
    lanczos = top_k_eigs(A, 3)
    with pytest.warns(RuntimeWarning, match="rank"):
        full = top_k_eigs(A, A.shape[0])
    full = SpectralPair(U=full.U[:, :3], eigenvalues=full.eigenvalues[:3])
    assert np.allclose(lanczos.U, full.U, atol=1e-12)
    a = scd(A, 3, seed=seed, pair=lanczos)
    b = scd(A, 3, seed=seed, pair=full)
    assert np.array_equal(a.corner_set.indices, b.corner_set.indices)
    assert a.clamped_diag_count == b.clamped_diag_count
    assert np.allclose(a.Pi_hat, b.Pi_hat, rtol=0, atol=1e-9)


@pytest.mark.parametrize("fit", [scd, dfsp, ideal_scd])
@pytest.mark.parametrize("bad", ["nan", "inf", "K=n+1"])
def test_bad_input_fails_at_the_boundary(fit, bad):
    A = np.ones((5, 5)) + np.eye(5)
    K = 2
    if bad == "K=n+1":
        K = 6
    else:
        A[0, 1] = A[1, 0] = float(bad)
    with pytest.raises(ValueError, match="non-finite|out of range"):
        fit(A, K)
