import itertools
import re

import numpy as np
import pytest

from spectralmix.metrics import (
    EXHAUSTIVE_K,
    _min_perm,
    highly_mixed,
    home_base,
    l1_error_rate,
    miscluster_count,
)


def agreement_table_count(labels_hat, labels_true, K):
    """Miscluster count and permutation from a K x K table of agreeing
    labels, the count's definition: n minus the most agreements."""
    agree = np.zeros((K, K))
    for k in range(1, K + 1):
        mask = labels_hat == k
        for l in range(1, K + 1):
            agree[k - 1, l - 1] = np.sum(mask & (labels_true == l))
    total, perm = _min_perm(-agree, exhaustive=K <= EXHAUSTIVE_K)
    return int(labels_hat.size + total), perm


class TestL1ErrorRate:
    def test_identity(self):
        Pi = np.array([[0.6, 0.4], [0.1, 0.9]])
        assert l1_error_rate(Pi, Pi).l1_rate == 0.0

    def test_column_swap_is_free(self):
        Pi = np.array([[0.6, 0.4], [0.1, 0.9], [1.0, 0.0]])
        assert l1_error_rate(Pi[:, ::-1], Pi).l1_rate == pytest.approx(0.0, abs=1e-15)

    def test_hand_enumerated_two_by_two(self):
        Pi = np.array([[1.0, 0.0], [0.0, 1.0]])
        Pi_hat = np.array([[0.9, 0.1], [0.2, 0.8]])
        # identity perm: (0.1+0.1 + 0.2+0.2)/2 = 0.3; swap is worse
        assert l1_error_rate(Pi_hat, Pi).l1_rate == pytest.approx(0.3, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            l1_error_rate(np.ones((2, 2)) / 2, np.ones((3, 2)) / 2)

    def test_permutation_invariance_both_sides(self):
        rng = np.random.default_rng(0)
        Pi = rng.dirichlet(np.ones(3), size=20)
        Pi_hat = rng.dirichlet(np.ones(3), size=20)
        base = l1_error_rate(Pi_hat, Pi).l1_rate
        for perm in itertools.permutations(range(3)):
            assert l1_error_rate(Pi_hat[:, perm], Pi).l1_rate == pytest.approx(base, abs=1e-12)
            assert l1_error_rate(Pi_hat, Pi[:, perm]).l1_rate == pytest.approx(base, abs=1e-12)

    def test_bounds(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            Pi = rng.dirichlet(np.ones(4), size=15)
            Pi_hat = rng.dirichlet(np.ones(4), size=15)
            rate = l1_error_rate(Pi_hat, Pi).l1_rate
            assert 0.0 <= rate <= 2.0

    def test_uniform_versus_pure_worst_case(self):
        # uniform rows against pure rows cost 2(K-1)/K under any permutation
        for K in (2, 3, 4):
            Pi = np.tile(np.eye(K)[0], (5, 1))
            Pi_hat = np.full((5, K), 1.0 / K)
            expected = 2.0 * (K - 1) / K
            assert l1_error_rate(Pi_hat, Pi).l1_rate == pytest.approx(expected, abs=1e-12)

    def test_pure_rows_identity_with_misclusters(self):
        # for fully pure truth and estimate, n * rate = 2 * miscluster count
        rng = np.random.default_rng(2)
        for _ in range(10):
            n, K = 30, 3
            labels = rng.integers(1, K + 1, size=n)
            flips = rng.integers(1, K + 1, size=n)
            labels_hat = np.where(rng.random(n) < 0.2, flips, labels)
            Pi = np.eye(K)[labels - 1]
            Pi_hat = np.eye(K)[labels_hat - 1]
            report = l1_error_rate(Pi_hat, Pi)
            count, _ = miscluster_count(labels_hat, labels, K=K)
            assert n * report.l1_rate == pytest.approx(2 * count, abs=1e-9)

    def test_exhaustive_matches_assignment(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            K = int(rng.integers(2, 7))
            n = int(rng.integers(5, 40))
            Pi = rng.dirichlet(np.ones(K), size=n)
            Pi_hat = rng.dirichlet(np.ones(K), size=n)
            a = l1_error_rate(Pi_hat, Pi, exhaustive=True).l1_rate
            b = l1_error_rate(Pi_hat, Pi, exhaustive=False).l1_rate
            assert a == pytest.approx(b, abs=1e-12)

    def test_report_fields(self):
        Pi = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
        Pi_hat = np.array([[0.9, 0.1], [0.1, 0.9], [0.55, 0.45]])
        report = l1_error_rate(Pi_hat, Pi)
        assert report.l1_rate == pytest.approx(0.5 / 3, abs=1e-12)
        assert report.best_permutation == (0, 1)


class TestHomeBase:
    def test_argmax(self):
        assert home_base(np.array([[0.8, 0.1, 0.1]])).tolist() == [1]
        assert home_base(np.array([[0.1, 0.1, 0.8]])).tolist() == [3]

    def test_tie_breaks_to_smallest(self):
        assert home_base(np.array([[0.5, 0.5]])).tolist() == [1]
        assert home_base(np.array([[1 / 3, 1 / 3, 1 / 3]])).tolist() == [1]


class TestMisclusterCount:
    def test_identical(self):
        labels = np.array([1, 2, 1, 2])
        assert miscluster_count(labels, labels, K=2)[0] == 0

    def test_global_swap_is_free(self):
        a = np.array([1, 1, 2, 2])
        b = np.array([2, 2, 1, 1])
        assert miscluster_count(a, b, K=2)[0] == 0

    def test_hand_case(self):
        true = np.array([1, 1, 2, 2])
        hat = np.array([1, 2, 2, 2])
        assert miscluster_count(hat, true, K=2)[0] == 1

    def test_k_mismatch(self):
        with pytest.raises(ValueError):
            miscluster_count(np.array([1, 5]), np.array([1, 2]), K=2)

    @pytest.mark.parametrize("hat,true,message", [
        ([1, 5], [1, 2], "labels exceed K"),
        ([1, 2], [1, 2, 1], "label vectors differ in length"),
        ([0, 2], [1, 2], "labels must be at least 1"),
        ([1, 2], [1, -1], "labels must be at least 1"),
    ], ids=["k-mismatch", "length-mismatch", "zero-estimated-label", "negative-true-label"])
    def test_bad_labels_named(self, hat, true, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            miscluster_count(np.array(hat), np.array(true), K=2)

    def test_exhaustive_matches_assignment(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            K = int(rng.integers(2, 7))
            n = int(rng.integers(10, 60))
            a = rng.integers(1, K + 1, size=n)
            b = rng.integers(1, K + 1, size=n)
            exhaustive_best = min(
                sum(np.sum((a == k + 1) & (b != perm[k] + 1)) for k in range(K))
                for perm in itertools.permutations(range(K))
            )
            assert miscluster_count(a, b, K=K)[0] == exhaustive_best

    @pytest.mark.parametrize("K, draws", [(2, 60), (3, 60), (4, 60), (5, 60), (6, 40),
                                          (7, 20), (8, 3), (9, 40), (10, 40)])
    def test_matches_the_agreement_table(self, K, draws):
        # one-hot rows cost 2n - 2 * agreements under the membership
        # matcher, so the count and, by exhaustive search, the permutation
        # are the agreement table's
        rng = np.random.default_rng(K)
        for _ in range(draws):
            n = int(rng.integers(5, 80))
            a, b = rng.integers(1, K + 1, size=n), rng.integers(1, K + 1, size=n)
            count, perm = miscluster_count(a, b, K=K)
            oracle_count, oracle_perm = agreement_table_count(a, b, K)
            assert count == oracle_count
            if K <= EXHAUSTIVE_K:
                assert perm == oracle_perm


class TestHighlyMixed:
    def test_cases(self):
        Pi = np.array([[1.0, 0.0], [0.5, 0.5], [0.85, 0.15]])
        assert highly_mixed(Pi).tolist() == [False, True, False]

    def test_uniform_row_is_mixed(self):
        assert highly_mixed(np.array([[1 / 3, 1 / 3, 1 / 3]]))[0]
