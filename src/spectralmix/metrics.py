"""Error measurement and label diagnostics for membership estimates.

Community labels are only identified up to permutation, so every
comparison here minimizes over column (or label) permutations: exhaustive
search for small K, optimal assignment above that. The assignment route is
exact because both objectives decompose into independent per-column costs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

EXHAUSTIVE_K = 8
MIXED_THRESHOLD = 0.8


@dataclass
class ErrorReport:
    l1_rate: float
    best_permutation: tuple


def _column_l1_costs(Pi_hat, Pi):
    # cost[k, l] = sum_i |Pi_hat(i, k) - Pi(i, l)|
    return np.abs(Pi_hat[:, :, None] - Pi[:, None, :]).sum(axis=0)


def _min_perm(cost, exhaustive):
    K = cost.shape[0]
    if exhaustive:
        best, best_perm = np.inf, None
        for perm in itertools.permutations(range(K)):
            total = sum(cost[k, perm[k]] for k in range(K))
            if total < best:
                best, best_perm = total, perm
        return best, best_perm
    # imported here so that K <= EXHAUSTIVE_K never loads scipy.optimize
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum()), tuple(int(c) for c in cols)


def l1_error_rate(Pi_hat, Pi, exhaustive=None):
    """min over column permutations of the entrywise L1 difference, over n.

    ``exhaustive`` forces the search strategy; by default K <= 8 enumerates
    all permutations and larger K uses optimal assignment (identical values,
    kept separate so each can cross-check the other).
    """
    Pi_hat = np.asarray(Pi_hat, dtype=float)
    Pi = np.asarray(Pi, dtype=float)
    if Pi_hat.shape != Pi.shape:
        raise ValueError(f"shape mismatch: {Pi_hat.shape} vs {Pi.shape}")
    n, K = Pi.shape
    if exhaustive is None:
        exhaustive = K <= EXHAUSTIVE_K
    cost = _column_l1_costs(Pi_hat, Pi)
    total, perm = _min_perm(cost, exhaustive)
    return ErrorReport(l1_rate=total / n, best_permutation=perm)


def home_base(Pi_hat):
    """Per-row argmax community, 1-based; ties go to the smallest index."""
    Pi_hat = np.asarray(Pi_hat, dtype=float)
    return np.argmax(Pi_hat, axis=1) + 1


def miscluster_count(labels_hat, labels_true, K):
    """Minimum label disagreements over all K! relabelings of labels_hat.

    Returns (count, permutation) where permutation[k] is the true label
    (0-based) matched to estimated label k+1.
    """
    labels_hat = np.asarray(labels_hat, dtype=int)
    labels_true = np.asarray(labels_true, dtype=int)
    if labels_hat.shape != labels_true.shape:
        raise ValueError("label vectors differ in length")
    if labels_hat.max() > K or labels_true.max() > K:
        raise ValueError("labels exceed K")
    if labels_hat.min() < 1 or labels_true.min() < 1:
        raise ValueError("labels must be at least 1")
    # one-hot rows: a mislabelled node costs 2 in the membership matcher's L1
    onehot = np.eye(K)
    cost = _column_l1_costs(onehot[labels_hat - 1], onehot[labels_true - 1])
    total, perm = _min_perm(cost, exhaustive=K <= EXHAUSTIVE_K)
    return int(total) // 2, perm


def highly_mixed(Pi_hat):
    """True where no single community weight exceeds ``MIXED_THRESHOLD``."""
    return np.asarray(Pi_hat, dtype=float).max(axis=1) <= MIXED_THRESHOLD
