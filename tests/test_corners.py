import numpy as np
import pytest

from conftest import random_ground_truth
from spectralmix import estimators, harness, metrics, model
from spectralmix.corners import (
    CornerFindingError,
    one_class_margin,
    spa_corners,
    spherical_kmeans,
    svm_cone_corners,
)
from spectralmix.spectral import row_normalize, top_k_eigs


def ideal_normalized(seed, n=60, K=3, **kwargs):
    rng = np.random.default_rng(seed)
    P, Pi, theta = random_ground_truth(rng, n, K, **kwargs)
    omega = model.build_omega(P, Pi, theta)
    pair = top_k_eigs(omega, K)
    return row_normalize(pair.U), Pi, pair


def pure_rows_of(Pi):
    return {k: set(np.where(np.abs(Pi[:, k] - 1.0) < 1e-12)[0]) for k in range(Pi.shape[1])}


class TestOneClassMargin:
    def test_identity_corners(self):
        sol = one_class_margin(np.eye(3))
        assert np.allclose(sol.w, [1, 1, 1], atol=1e-6)
        assert np.allclose(sol.row_margins, 1.0, atol=1e-6)

    def test_two_corners_plus_interior(self):
        pts = np.array([[1.0, 0.0], [0.0, 1.0], [1 / np.sqrt(2), 1 / np.sqrt(2)]])
        sol = one_class_margin(pts)
        assert np.allclose(sol.w, [1.0, 1.0], atol=1e-6)
        assert np.allclose(sol.row_margins[:2], 1.0, atol=1e-6)
        assert sol.row_margins[2] == pytest.approx(np.sqrt(2), abs=1e-6)

    def test_margins_at_least_one(self):
        for seed in range(5):
            normalized, _, _ = ideal_normalized(seed)
            sol = one_class_margin(normalized.matrix)
            assert np.all(sol.row_margins >= 1.0 - 1e-8)

    def test_active_set_oracle(self):
        # min-norm solution restricted to the active constraints has a closed
        # form w = Ya' (Ya Ya')^-1 1; the solver must match it
        normalized, _, _ = ideal_normalized(3, n=40, K=2)
        sol = one_class_margin(normalized.matrix)
        active = normalized.matrix[sol.row_margins <= 1.0 + 1e-6]
        Ya = np.unique(np.round(active, 12), axis=0)
        w_oracle, *_ = np.linalg.lstsq(Ya, np.ones(len(Ya)), rcond=None)
        assert np.allclose(sol.w, w_oracle, atol=1e-5)

    def test_minimal_margin_rows_are_pure(self):
        for seed in range(5):
            normalized, Pi, _ = ideal_normalized(seed + 20, n=50, K=3)
            sol = one_class_margin(normalized.matrix)
            low = np.where(sol.row_margins <= 1.0 + 1e-6)[0]
            pure = set().union(*pure_rows_of(Pi).values())
            assert set(low) <= pure
            # every community contributes at least one minimal-margin row
            for rows in pure_rows_of(Pi).values():
                assert rows & set(low)

    def test_infeasible_raises_with_certificate(self):
        pts = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        with pytest.raises(CornerFindingError) as err:
            one_class_margin(pts)
        lam = err.value.certificate
        assert lam is not None
        assert np.linalg.norm(pts.T @ lam) < 1e-3

    def test_requires_unit_rows(self):
        with pytest.raises(ValueError, match="unit-norm"):
            one_class_margin(np.array([[2.0, 0.0], [0.0, 1.0]]))


class TestSphericalKmeans:
    def test_antipodal_bundles(self):
        rng = np.random.default_rng(0)
        a = np.array([1.0, 0.0]) + 0.01 * rng.normal(size=(20, 2))
        b = np.array([-1.0, 0.0]) + 0.01 * rng.normal(size=(20, 2))
        X = np.vstack([a, b])
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        labels, centers = spherical_kmeans(X, 2, seed=0)
        assert len(set(labels[:20])) == 1 and len(set(labels[20:])) == 1
        assert labels[0] != labels[20]

    def test_exact_corners_zero_objective(self):
        X = np.eye(4)
        labels, centers = spherical_kmeans(X, 4, seed=1)
        assert sorted(labels.tolist()) == [0, 1, 2, 3]
        obj = np.sum(1.0 - np.sum(X * centers[labels], axis=1))
        assert obj < 1e-12

    def test_planted_bundles_at_sixty_degrees(self):
        # three tight bundles, pairwise angle 60 degrees, tiny noise
        base = np.array([[1.0, 0.0, 0.0],
                         [0.5, np.sqrt(3) / 2, 0.0],
                         [0.5, np.sqrt(3) / 6, np.sqrt(6) / 3]])
        for seed in range(50):
            rng = np.random.default_rng(seed)
            pts, truth = [], []
            for k in range(3):
                bundle = base[k] + 0.01 * rng.normal(size=(15, 3))
                pts.append(bundle / np.linalg.norm(bundle, axis=1, keepdims=True))
                truth.extend([k] * 15)
            X = np.vstack(pts)
            labels, _ = spherical_kmeans(X, 3, seed=seed)
            # perfect up to label permutation
            for k in range(3):
                block = labels[np.array(truth) == k]
                assert len(set(block.tolist())) == 1
            assert len(set(labels.tolist())) == 3

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(30, 3))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        l1, c1 = spherical_kmeans(X, 3, seed=4)
        l2, c2 = spherical_kmeans(X, 3, seed=4)
        assert np.array_equal(l1, l2) and np.array_equal(c1, c2)


class TestSvmConeCorners:
    def test_ideal_recovers_pure_nodes(self):
        for seed in range(10):
            normalized, Pi, _ = ideal_normalized(seed, n=80, K=3)
            cs = svm_cone_corners(normalized, 3, seed=seed)
            by_comm = pure_rows_of(Pi)
            hit = set()
            for idx in cs.indices:
                owner = [k for k, rows in by_comm.items() if idx in rows]
                assert owner, f"corner {idx} is not a pure node"
                hit.add(owner[0])
            assert hit == {0, 1, 2}

    def test_ideal_cone_spans_all_rows(self):
        normalized, Pi, _ = ideal_normalized(1, n=60, K=3)
        cs = svm_cone_corners(normalized, 3, seed=0)
        B = normalized.matrix[cs.indices]
        Y = normalized.matrix @ np.linalg.inv(B)
        assert np.linalg.norm(Y @ B - normalized.matrix) < 1e-8
        assert Y.min() > -1e-8  # nonnegative combinations

    def test_duplicate_corners_equivalent(self):
        X = np.vstack([np.eye(2)] * 5)
        cs = svm_cone_corners(X, 2, seed=0)
        B = X[cs.indices]
        # any representative works: the recovered simplex is {e1, e2} exactly
        assert np.allclose(B[np.argsort(B[:, 0])], [[0.0, 1.0], [1.0, 0.0]])

    def test_perturbed_corners_stay_close(self):
        normalized, Pi, _ = ideal_normalized(5, n=80, K=3)
        clean = svm_cone_corners(normalized, 3, seed=0)
        rng = np.random.default_rng(0)
        noisy = normalized.matrix + 1e-3 * rng.normal(size=normalized.matrix.shape)
        noisy /= np.linalg.norm(noisy, axis=1, keepdims=True)
        cs = svm_cone_corners(noisy, 3, seed=0)
        Bc = normalized.matrix[clean.indices]
        Bn = noisy[cs.indices]
        # match each noisy corner to its closest clean corner by angle
        cos = np.abs(Bn @ Bc.T)
        assert np.all(np.arccos(np.clip(cos.max(axis=1), -1, 1)) < 0.05)

    def test_rotation_equivariance(self):
        normalized, _, _ = ideal_normalized(6, n=50, K=3)
        rng = np.random.default_rng(1)
        R, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        cs1 = svm_cone_corners(normalized.matrix, 3, seed=2)
        cs2 = svm_cone_corners(normalized.matrix @ R, 3, seed=2)
        assert set(cs1.indices.tolist()) == set(cs2.indices.tolist())

    def test_determinism(self):
        normalized, _, _ = ideal_normalized(7)
        a = svm_cone_corners(normalized, 3, seed=3)
        b = svm_cone_corners(normalized, 3, seed=3)
        assert np.array_equal(a.indices, b.indices)

    def test_degenerate_rows_not_candidates(self):
        normalized, Pi, _ = ideal_normalized(8, n=40, K=2)
        M = normalized.matrix.copy()
        M[5] = 0.0
        nr = row_normalize(M)
        cs = svm_cone_corners(nr, 2, seed=0)
        assert 5 not in cs.indices

    def test_collapsed_band_retries_on_every_usable_row(self):
        # a sparse poisson draw (experiment 3 at n=80, rho=0.2) where 66 of
        # 80 rows are degenerate: the 6-row band clusters into only two
        # groups, and one pass over all 14 usable rows finds three
        cfg = harness.experiment_config(3, n=80, n0=8, replicates=1, master_seed=960329833)
        s_theta, s_adj, s_est = harness._replicate_seeds(cfg.master_seed, (0, 0))
        theta = model.make_theta(cfg.n, 0.2, cfg.theta_rule, seed=s_theta)
        omega = model.build_omega(cfg.block_matrix(), cfg.membership(), theta)
        A = model.sample_adjacency(omega, cfg.edge_distribution(), seed=s_adj)
        normalized = row_normalize(top_k_eigs(A, 3).U)
        cs = svm_cone_corners(normalized, 3, seed=s_est)
        usable = sorted(set(range(80)) - set(normalized.degenerate))
        assert len(usable) == 14
        assert sorted(cs.candidates.tolist()) == usable
        assert sorted(set(cs.cluster_assignments.tolist())) == [0, 1, 2]
        assert np.linalg.cond(normalized.matrix[cs.indices]) < 1e8

    def test_collapse_recommends_smaller_k(self):
        X = np.tile(np.array([[1.0, 0.0]]), (6, 1))
        with pytest.raises(CornerFindingError, match="smaller K"):
            svm_cone_corners(X, 2, seed=0)


@pytest.fixture(scope="module")
def signed_sweep_draws():
    """Replicates 0-9 of experiment 4 (signed, negative off-diagonal) at
    rho=1.0 and master seed 11, drawn as ``harness.run_sweep`` draws them.
    Every one of these draws has a non-pointed empirical hull."""
    cfg = harness.experiment_config(4, master_seed=11)
    gi = cfg.rho_grid.index(1.0)
    Pi, P, dist = cfg.membership(), cfg.block_matrix(), cfg.edge_distribution()
    draws = []
    for rep in range(10):
        s_theta, s_adj, s_est = harness._replicate_seeds(cfg.master_seed, (gi, rep))
        theta = model.make_theta(cfg.n, 1.0, cfg.theta_rule, seed=s_theta)
        A = model.sample_adjacency(model.build_omega(P, Pi, theta), dist, seed=s_adj)
        draws.append((A, s_est))
    return Pi, cfg.K, draws


class TestNonPointedHull:
    def test_corners_are_greedy_pick_on_weighted_rows(self, signed_sweep_draws):
        _, K, draws = signed_sweep_draws
        A, s_est = draws[0]
        normalized = row_normalize(top_k_eigs(A, K).U)
        cs = svm_cone_corners(normalized, K, seed=s_est)
        assert cs.margins.min() <= 0
        weighted = normalized.matrix * normalized.row_norms[:, None]
        greedy = spa_corners(weighted, K).indices
        assert cs.indices.tolist() == sorted(greedy.tolist())
        assert cs.candidates.tolist() == list(range(A.shape[0]))
        assert not cs.cluster_assignments.any()

    def test_scd_no_worse_than_baseline(self, signed_sweep_draws):
        Pi, K, draws = signed_sweep_draws
        mean = {
            method: np.mean([
                metrics.l1_error_rate(estimators.estimate(method, A, K, seed=s).Pi_hat,
                                      Pi).l1_rate
                for A, s in draws])
            for method in ("scd", "dfsp")
        }
        assert mean["scd"] <= mean["dfsp"], mean


class TestSpaCorners:
    def test_separable_by_construction(self):
        U = np.array([[2.0, 0.0], [0.0, 1.5], [0.6, 0.45]])
        cs = spa_corners(U, 2)
        assert set(cs.indices.tolist()) == {0, 1}

    def test_k_equals_one(self):
        U = np.array([[1.0], [3.0], [-2.0]])
        cs = spa_corners(U, 1)
        assert cs.indices.tolist() == [1]

    def test_pure_node_eigenvectors(self):
        # constant-theta, all-pure model: raw eigenvector rows are separable
        rng = np.random.default_rng(0)
        for seed in range(5):
            Pi = model.make_synthetic_membership(30, 3, 10)
            P, _, _ = random_ground_truth(np.random.default_rng(seed), 30, 3)
            omega = model.build_omega(P, Pi, np.ones(30))
            pair = top_k_eigs(omega, 3)
            cs = spa_corners(pair.U, 3)
            for idx in cs.indices:
                assert Pi[idx].max() == 1.0

    def test_separable_factor_property(self):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            K, m = 3, 40
            B = rng.normal(size=(K, K)) + 3 * np.eye(K)
            W = rng.dirichlet(np.ones(K), size=m)
            pure = rng.choice(m, size=K, replace=False)
            for k, idx in enumerate(pure):
                W[idx] = np.eye(K)[k]
            U = W @ B
            cs = spa_corners(U, K)
            assert set(cs.indices.tolist()) == set(pure.tolist())

    def test_rank_deficiency_error(self):
        U = np.vstack([np.ones((4, 2))])
        with pytest.raises(CornerFindingError, match="rank"):
            spa_corners(U, 2)
