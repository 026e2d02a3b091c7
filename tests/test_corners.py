import re

import numpy as np
import pytest
from scipy.optimize import nnls as scipy_nnls

from conftest import random_ground_truth, sweep_draw
from spectralmix import corners, estimators, harness, metrics, model
from spectralmix.corners import (
    HULL_TOL,
    EstimationError,
    _nnls,
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


def margin_problem(Y):
    """``one_class_margin``'s NNLS problem for the rows Y."""
    E = np.vstack([Y.T, np.ones(len(Y))])
    f = np.zeros(E.shape[0])
    f[-1] = 1.0
    return E, f


def hull_certificate(Y):
    """Convex weights on the rows Y, from ``one_class_margin``'s own NNLS
    solve, whose combination Y'lam is the point of the hull nearest the
    origin, and that solve's residual."""
    u, rnorm = _nnls(*margin_problem(Y))
    return u / u.sum(), rnorm


class TestOneClassMargin:
    def test_identity_corners(self):
        # the rows have full rank, so the margins fix w = (1, 1, 1)
        margins = one_class_margin(np.eye(3))
        assert np.allclose(margins, 1.0, atol=1e-6)

    def test_two_corners_plus_interior(self):
        pts = np.array([[1.0, 0.0], [0.0, 1.0], [1 / np.sqrt(2), 1 / np.sqrt(2)]])
        # the margins of w = (1, 1), which they fix as the rows have full rank
        margins = one_class_margin(pts)
        assert np.allclose(margins[:2], 1.0, atol=1e-6)
        assert margins[2] == pytest.approx(np.sqrt(2), abs=1e-6)

    def test_margins_at_least_one(self):
        for seed in range(5):
            normalized, _, _ = ideal_normalized(seed)
            assert np.all(one_class_margin(normalized.matrix) >= 1.0 - 1e-8)

    def test_active_set_oracle(self):
        # min-norm solution restricted to the active constraints has a closed
        # form w = Ya' (Ya Ya')^-1 1; the solver must match it
        normalized, _, _ = ideal_normalized(3, n=40, K=2)
        Y = normalized.matrix
        margins = one_class_margin(Y)
        Ya = np.unique(np.round(Y[margins <= 1.0 + 1e-6], 12), axis=0)
        w_oracle, *_ = np.linalg.lstsq(Ya, np.ones(len(Ya)), rcond=None)
        # Y has full column rank, so its margins fix w
        assert np.linalg.matrix_rank(Y) == Y.shape[1]
        w = np.linalg.lstsq(Y, margins, rcond=None)[0]
        assert np.allclose(w, w_oracle, atol=1e-5)

    def test_minimal_margin_rows_are_pure(self):
        for seed in range(5):
            normalized, Pi, _ = ideal_normalized(seed + 20, n=50, K=3)
            low = np.where(one_class_margin(normalized.matrix) <= 1.0 + 1e-6)[0]
            pure = set().union(*pure_rows_of(Pi).values())
            assert set(low) <= pure
            # every community contributes at least one minimal-margin row
            for rows in pure_rows_of(Pi).values():
                assert rows & set(low)

    def test_non_pointed_hull_returns_none(self):
        pts = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        assert one_class_margin(pts) is None
        lam, rnorm = hull_certificate(pts)
        assert rnorm <= HULL_TOL
        assert np.linalg.norm(pts.T @ lam) < 1e-3

    def test_requires_unit_rows(self):
        with pytest.raises(ValueError, match="unit-norm"):
            one_class_margin(np.array([[2.0, 0.0], [0.0, 1.0]]))

    def test_rejects_nan_rows(self):
        with pytest.raises(ValueError, match="unit-norm"):
            one_class_margin(np.array([[np.nan, 0.0], [0.0, 1.0]]))


@pytest.fixture(scope="module")
def margin_draws():
    """Sweep draws of all four experiments across rho (master seed 11,
    replicate 0): adjacency, spectral pair, K and estimator seed."""
    draws = []
    for exp in (1, 2, 3, 4):
        cfg = harness.experiment_config(exp, master_seed=11)
        for rho in cfg.rho_grid[::3]:
            A, s_est = sweep_draw(cfg, rho, 0)
            draws.append((A, top_k_eigs(A, cfg.K), cfg.K, s_est))
    return draws


class TestNnls:
    """The in-house solver against ``scipy.optimize.nnls``: the residual of
    the projection onto a convex cone is unique, so it must agree even
    where the coefficients do not (duplicate or zero columns)."""

    @staticmethod
    def assert_matches_scipy(E, f):
        u, rnorm = _nnls(E, f)
        u_ref, rnorm_ref = scipy_nnls(E, f)
        assert u.min() >= 0
        assert rnorm == pytest.approx(np.linalg.norm(E @ u - f), abs=1e-15)
        assert np.abs((E @ u - f) - (E @ u_ref - f)).max() <= 1e-12
        assert (rnorm <= HULL_TOL) == (rnorm_ref <= HULL_TOL)
        return rnorm

    @pytest.mark.parametrize("rows,m", [(4, 10), (4, 3), (6, 2), (3, 40), (5, 5), (2, 25)])
    def test_random_problems(self, rows, m):
        rng = np.random.default_rng(rows * 100 + m)
        for case in range(20):
            E = rng.normal(size=(rows, m))
            if case % 3 == 1 and m >= 3:
                E[:, 1] = E[:, 0]  # a duplicate column
                E[:, 2] = 0.0      # and a zero column
            if case % 2:  # f inside the cone: residual zero
                f = E @ (np.abs(rng.normal(size=m)) * (rng.random(m) < 0.5))
            else:
                f = rng.normal(size=rows)
            self.assert_matches_scipy(E, f)

    def test_sweep_draws(self, margin_draws):
        verdicts = set()
        for _, pair, _, _ in margin_draws:
            rnorm = self.assert_matches_scipy(*margin_problem(row_normalize(pair.U).matrix))
            verdicts.add(rnorm <= HULL_TOL)
        assert verdicts == {True, False}  # both non-pointed and pointed draws

    def test_full_rank_coefficients_match_scipy(self):
        # independent columns make u unique; a condition number near 1e6
        # separates an orthogonal least-squares solve from the normal
        # equations, which square it
        rng = np.random.default_rng(7)
        for rows, m in [(6, 4), (5, 5), (8, 3)]:
            Q1 = np.linalg.qr(rng.normal(size=(rows, rows)))[0]
            Q2 = np.linalg.qr(rng.normal(size=(m, m)))[0]
            E = Q1[:, :m] @ np.diag(np.logspace(0, -6, m)) @ Q2
            u_true = rng.uniform(0.5, 2.0, size=m)
            u, _ = _nnls(E, E @ u_true)
            u_ref, _ = scipy_nnls(E, E @ u_true)
            assert np.abs(u - u_ref).max() <= 1e-8
            assert np.abs(u - u_true).max() <= 1e-8

    def test_largest_dual_enters_first(self):
        # f lies on the second column, whose dual (1.0) beats the first's
        # (0.6): one least-squares step; taking the first free column
        # instead costs three (enter it, enter the second, drop the first)
        E, f = np.array([[0.6, 1.0], [0.8, 0.0]]), np.array([1.0, 0.0])
        u, rnorm = _nnls(E, f, maxiter=1)
        assert u.tolist() == [0.0, 1.0] and rnorm == 0.0
        with pytest.raises(EstimationError, match="did not converge in 0"):
            _nnls(E, f, maxiter=0)

    def test_iteration_bound(self):
        # three columns enter one at a time: three least-squares steps
        E, f = np.eye(3), np.ones(3)
        u, rnorm = _nnls(E, f, maxiter=3)
        assert u.tolist() == [1.0, 1.0, 1.0] and rnorm == 0.0
        for maxiter in (1, 2):
            with pytest.raises(EstimationError, match="did not converge in"):
                _nnls(E, f, maxiter=maxiter)


class TestScipyNnlsReference:
    """``scipy.optimize.nnls``, the margin step's solver before the in-house
    one, as the reference: the corners, their clusters and the fits must not
    depend on which solver ran."""

    @staticmethod
    def corners_of(pair, K, seed):
        cs = svm_cone_corners(row_normalize(pair.U), K, seed)
        return cs.candidates.tolist(), cs.indices.tolist(), cs.cluster_assignments.tolist()

    def test_sweep_draws(self, margin_draws, monkeypatch):
        def fit(A, pair, K, seed):
            return (self.corners_of(pair, K, seed),
                    estimators.estimate("scd", A, K, seed=seed, pair=pair).Pi_hat.tobytes())

        ours = [fit(*draw) for draw in margin_draws]
        monkeypatch.setattr(corners, "_nnls", scipy_nnls)
        for draw, got in zip(margin_draws, ours):
            assert got == fit(*draw)

    def test_slice_order_ignores_margin_rounding(self, margin_draws, monkeypatch):
        # the support rows all have margin 1, computed only to within the
        # solver's rounding: moving every margin by a few ulps must move no
        # candidate, corner or cluster
        exact = [self.corners_of(pair, K, seed) for _, pair, K, seed in margin_draws]
        slices = 0
        for _, pair, K, seed in margin_draws:
            margins = svm_cone_corners(row_normalize(pair.U), K, seed).margins
            margins = margins[np.isfinite(margins)]
            floor = max(2 * K, int(np.ceil(corners.FLOOR_FRAC * margins.size)))
            slices += margins.min() > 0 and (
                (margins <= (1 + corners.DELTA_CAP) * margins.min()).sum() < floor)
        assert slices >= 3  # draws that take the lowest-margin slice
        solve = corners.one_class_margin

        def jittered(points):
            margins = solve(points)
            if margins is None:
                return None
            ulps = np.random.default_rng(0).integers(-4, 5, size=margins.size)
            return margins * (1 + ulps * np.finfo(float).eps)

        monkeypatch.setattr(corners, "one_class_margin", jittered)
        for (_, pair, K, seed), want in zip(margin_draws, exact):
            assert self.corners_of(pair, K, seed) == want


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


def reference_spherical_kmeans(X, K, seed, reseeds):
    """``spherical_kmeans`` as first written, one restart at a time; counts
    its empty-cluster re-seeds in ``reseeds[0]``."""
    m = X.shape[0]
    rng = np.random.default_rng(np.random.Philox(key=np.uint64(int(seed) & 0xFFFFFFFFFFFFFFFF)))
    best = None
    for _ in range(10):
        idx = [int(rng.integers(m))]
        for _ in range(K - 1):
            d = np.maximum(0.0, np.min(1.0 - X @ X[idx].T, axis=1))
            total = d.sum()
            if total <= 1e-15:
                idx.append(int(rng.integers(m)))
            else:
                idx.append(int(rng.choice(m, p=d / total)))
        C = X[idx].copy()
        labels = np.argmax(X @ C.T, axis=1)
        for _ in range(300):
            for k in range(K):
                if not np.any(labels == k):
                    reseeds[0] += 1
                    far = int(np.argmin(np.max(X @ C.T, axis=1)))
                    C[k] = X[far]
                    labels = np.argmax(X @ C.T, axis=1)
            newC = C.copy()
            for k in range(K):
                members = X[labels == k]
                if members.size:
                    mean = members.mean(axis=0)
                    norm = np.linalg.norm(mean)
                    if norm > 1e-15:
                        newC[k] = mean / norm
            new_labels = np.argmax(X @ newC.T, axis=1)
            done = np.array_equal(new_labels, labels) and np.allclose(newC, C)
            C, labels = newC, new_labels
            if done:
                break
        obj = float(np.sum(1.0 - np.sum(X * C[labels], axis=1)))
        if best is None or obj < best[0] - 1e-12:
            best = (obj, labels.copy(), C.copy())
    return best[1], best[2]


class TestKmeansBitwiseReference:
    """The batched restarts give the bits of the one-at-a-time loop."""

    def test_seeded_inputs(self):
        rng = np.random.default_rng(21)
        reseeds = [0]
        for case in range(60):
            K = int(rng.integers(1, 5))
            m = K if case % 5 == 0 else int(rng.integers(K, 120))
            X = rng.normal(size=(m, max(K, 2)))
            if case % 2:  # few distinct rows, at times fewer than K: clusters empty
                distinct = max(1, K - 1) if case % 4 == 1 else max(1, m // 6)
                X = X[rng.integers(distinct, size=m)]
            X /= np.linalg.norm(X, axis=1, keepdims=True)
            got = spherical_kmeans(X, K, seed=case)
            want = reference_spherical_kmeans(X, K, case, reseeds)
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].tobytes() == want[1].tobytes()
        assert reseeds[0] > 0  # the re-seed path ran

    def test_signed_zero_coordinates(self):
        # eigenvector sign fixing can leave -0.0 entries; where a cluster's
        # members all hold -0.0, its center gets the zero's sign that
        # mean(axis=0) gives
        rng = np.random.default_rng(4)
        for seed in range(5):
            angles = rng.uniform(0.0, 2.0 * np.pi, size=40)
            X = np.column_stack([np.cos(angles), np.sin(angles), np.full(40, -0.0)])
            got = spherical_kmeans(X, 3, seed=seed)
            want = reference_spherical_kmeans(X, 3, seed, [0])
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].tobytes() == want[1].tobytes()

    def test_sweep_candidates(self):
        # the band rows svm_cone_corners clusters on pointed sweep draws
        for exp in (2, 3):
            cfg = harness.experiment_config(exp, master_seed=11)
            for rho in cfg.rho_grid[::3]:
                A, seed = sweep_draw(cfg, rho, 0)
                normalized = row_normalize(top_k_eigs(A, cfg.K).U)
                cs = svm_cone_corners(normalized, cfg.K, seed)
                X = normalized.matrix[cs.candidates]
                got = spherical_kmeans(X, cfg.K, seed)
                want = reference_spherical_kmeans(X, cfg.K, seed, [0])
                assert got[0].tobytes() == want[0].tobytes()
                assert got[1].tobytes() == want[1].tobytes()


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
        cs = svm_cone_corners(row_normalize(X), 2, seed=0)
        B = X[cs.indices]
        # any representative works: the recovered simplex is {e1, e2} exactly
        assert np.allclose(B[np.argsort(B[:, 0])], [[0.0, 1.0], [1.0, 0.0]])

    def test_perturbed_corners_stay_close(self):
        normalized, Pi, _ = ideal_normalized(5, n=80, K=3)
        clean = svm_cone_corners(normalized, 3, seed=0)
        rng = np.random.default_rng(0)
        noisy = normalized.matrix + 1e-3 * rng.normal(size=normalized.matrix.shape)
        noisy /= np.linalg.norm(noisy, axis=1, keepdims=True)
        cs = svm_cone_corners(row_normalize(noisy), 3, seed=0)
        Bc = normalized.matrix[clean.indices]
        Bn = noisy[cs.indices]
        # match each noisy corner to its closest clean corner by angle
        cos = np.abs(Bn @ Bc.T)
        assert np.all(np.arccos(np.clip(cos.max(axis=1), -1, 1)) < 0.05)

    def test_rotation_equivariance(self):
        normalized, _, _ = ideal_normalized(6, n=50, K=3)
        rng = np.random.default_rng(1)
        R, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        cs1 = svm_cone_corners(row_normalize(normalized.matrix), 3, seed=2)
        cs2 = svm_cone_corners(row_normalize(normalized.matrix @ R), 3, seed=2)
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

    def test_opposite_rows_take_weighted_spa(self):
        # 66 of 80 rows are degenerate, as in a sparse noise-floor draw; the
        # other 12 usable rows lie in the positive orthant, so only the pair
        # +e3, -e3 keeps the hull from being pointed
        rng = np.random.default_rng(7)
        U = np.zeros((80, 3))
        rows = np.sort(rng.choice(80, size=14, replace=False))
        U[rows] = np.abs(rng.normal(size=(14, 3))) * rng.uniform(0.05, 0.3, size=(14, 1))
        U[rows[3]], U[rows[9]] = [0.0, 0.0, 0.2], [0.0, 0.0, -0.1]
        normalized = row_normalize(U)
        usable = np.setdiff1d(np.arange(80), normalized.degenerate)
        assert usable.size == 14
        Y = normalized.matrix[usable]
        assert one_class_margin(Y) is None
        lam, rnorm = hull_certificate(Y)
        assert rnorm <= HULL_TOL
        assert lam.min() >= 0 and lam.sum() == pytest.approx(1.0)
        assert np.linalg.norm(Y.T @ lam) < 1e-12
        cs = svm_cone_corners(normalized, 3, seed=5)
        weighted = Y * normalized.row_norms[usable, None]
        assert cs.indices.tolist() == sorted(usable[spa_corners(weighted, 3).indices].tolist())
        assert cs.candidates.tolist() == usable.tolist()
        assert not cs.cluster_assignments.any()
        assert np.all(cs.margins[usable] == 0)
        assert np.all(np.isinf(np.delete(cs.margins, usable)))

    @pytest.mark.parametrize("rho", [1.3, 1.4, 1.5])
    def test_thin_pointed_hull_takes_band(self, rho):
        # experiment 1 draws whose hull is pointed only by a thin margin
        # (||w*|| of 47 to 76): the exact solve separates them
        cfg = harness.experiment_config(1, master_seed=1002)
        A, s_est = sweep_draw(cfg, rho, 0)
        normalized = row_normalize(top_k_eigs(A, cfg.K).U)
        assert not normalized.degenerate
        margins = one_class_margin(normalized.matrix)
        assert margins.min() >= 1.0 - 1e-9
        cs = svm_cone_corners(normalized, cfg.K, seed=s_est)
        assert np.allclose(cs.margins, margins)
        assert cs.candidates.size < A.shape[0]
        assert sorted(set(cs.cluster_assignments.tolist())) == list(range(cfg.K))

    def test_collapse_recommends_smaller_k(self):
        X = np.tile(np.array([[1.0, 0.0]]), (6, 1))
        with pytest.raises(EstimationError, match="smaller K"):
            svm_cone_corners(row_normalize(X), 2, seed=0)


@pytest.fixture(scope="module")
def signed_sweep_draws():
    """Replicates 0-9 of experiment 4 (signed, negative off-diagonal) at
    rho=1.0 and master seed 11, drawn as ``harness.run_sweep`` draws them.
    Every one of these draws has a non-pointed empirical hull."""
    cfg = harness.experiment_config(4, master_seed=11)
    draws = [sweep_draw(cfg, 1.0, rep) for rep in range(10)]
    return cfg.membership(), cfg.K, draws


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

    # perfbench sweep_pos draws (seed 201, operation 25; seed 309, operation
    # 0): experiment 2 at rho = 0.1, replicate 0. Each NNLS residual lies
    # above 1e-10, but r[K] = sum(u) - 1 rounds to 0, so the margins
    # -r[:K] / r[K] would be infinite or NaN. The first residual squares
    # below eps; the second, 1.7e-8, lies just above sqrt(eps), so a
    # residual cut at sqrt(eps) would not catch it
    @pytest.mark.parametrize("master_seed", [606645576, 3852596590],
                             ids=["below_sqrt_eps", "above_sqrt_eps"])
    def test_residual_float_cannot_resolve_takes_spa(self, master_seed):
        cfg = harness.experiment_config(2, master_seed=master_seed)
        A, s_est = harness.draw_replicate(cfg, 0, 0, cfg.block_matrix(), cfg.membership())
        normalized = row_normalize(top_k_eigs(A, cfg.K).U)
        usable = np.setdiff1d(np.arange(cfg.n), normalized.degenerate)
        Y = normalized.matrix[usable]
        E, f = margin_problem(Y)
        u, rnorm = _nnls(E, f)
        assert 1e-10 < rnorm < 1e-7 and (E @ u - f)[-1] == 0.0
        assert one_class_margin(Y) is None
        with np.errstate(all="raise"):
            cs = svm_cone_corners(normalized, cfg.K, seed=s_est)
        assert np.all(cs.margins[usable] == 0)
        weighted = Y * normalized.row_norms[usable, None]
        assert cs.indices.tolist() == sorted(usable[spa_corners(weighted, cfg.K).indices])

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
        with pytest.raises(EstimationError, match="rank"):
            spa_corners(U, 2)


class TestBoundaryErrors:
    CASES = {
        "kmeans-fewer-points-than-k": (lambda: spherical_kmeans(np.eye(2), 3, seed=0),
                                       ValueError, "need at least K=3 points, got 2"),
        "fewer-rows-than-k": (lambda: svm_cone_corners(row_normalize(np.eye(2)), 3, seed=0),
                              EstimationError, "cannot find 3 corners among 2 rows"),
        "too-few-usable-rows": (
            lambda: svm_cone_corners(row_normalize([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]), 2,
                                     seed=0),
            EstimationError, "only 1 non-degenerate rows but K=2; try a smaller K"),
        "spa-k-above-n": (lambda: spa_corners(np.eye(3), 4), ValueError,
                          "K=4 out of range for 3 rows"),
        "spa-k-zero": (lambda: spa_corners(np.eye(3), 0), ValueError,
                       "K=0 out of range for 3 rows"),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_raises_named_error(self, case):
        call, error, message = self.CASES[case]
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call()
