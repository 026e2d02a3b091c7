"""Membership estimators: the population-oracle pipeline, its empirical
version, and the separable-factorization baseline.

All three share the same skeleton: leading-K eigenpairs, corner rows, then
a reconstruction that maps each node's eigenvector row onto the simplex
spanned by the corners. The empirical estimator additionally clamps
negatives and routes all-zero rows to the uniform vector so isolated
nodes never abort a fit; a fit that cannot give an estimate raises
``EstimationError``, the one fit-failure type (defined in ``corners``).

The first stage, the leading-K eigendecomposition of ``A``, is the same
for ``scd`` and ``dfsp``. Both take it as an optional ``pair``: a sweep
that fits both methods to one draw solves it once and hands the
``SpectralPair`` to each (neither method writes to it). Without a pair,
each method solves it itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import corners as _corners
from . import spectral as _spectral
from .corners import EstimationError

ZERO_L1_TOL = 1e-12
COND_LIMIT = 1e12
DIAG_REL_TOL = 1e-12


@dataclass
class EstimationResult:
    Pi_hat: np.ndarray
    corner_set: _corners.CornerSet
    Z: np.ndarray
    degenerate_rows: list = field(default_factory=list)
    method: str = "scd"
    clamped_diag_count: int = 0

    def summary(self):
        """Sidecar record: corners and fit diagnostics (the membership table
        itself is written separately as a dense array)."""
        return {
            "method": self.method,
            "corner_indices": [int(i) for i in self.corner_set.indices],
            "degenerate_rows": [int(i) for i in self.degenerate_rows],
            "clamped_diag_count": int(self.clamped_diag_count),
        }


def _corner_block_inverse(B, what):
    """Inverse of a corner block; the one condition check any corner pick
    goes through, so a singular block fails the fit by name."""
    cond = np.linalg.cond(B)
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise EstimationError(
            f"{what} corner block is numerically singular (condition number {cond:.3g})")
    return np.linalg.inv(B)


def _reconstruct(U, lam, Ustar, corner_idx):
    """Z = U B^{-1} sqrt(diag(B Lambda B')) for corner rows B = Ustar[corners],
    and the count of negative diagonals clamped to zero.

    A diagonal with |d_k| <= DIAG_REL_TOL * sum_j B_kj^2 |lambda_j| is
    rounding noise around zero (an eigenvalue pair +l, -l weighed equally
    by a corner row) and is set to zero, so its sign cannot decide the fit;
    only truly negative diagonals are clamped and counted.
    """
    B = Ustar[corner_idx]
    d = np.einsum("ij,j,ij->i", B, lam, B)
    d[np.abs(d) <= DIAG_REL_TOL * np.einsum("ij,j,ij->i", B, np.abs(lam), B)] = 0.0
    Z = U @ _corner_block_inverse(B, "row-normalized") @ np.diag(np.sqrt(np.maximum(d, 0.0)))
    return Z, int(np.sum(d < 0))


def _rows_to_simplex(Z, K):
    l1 = np.abs(Z).sum(axis=1)
    degenerate = np.where(l1 < ZERO_L1_TOL)[0]
    Z = Z.copy()
    Z[degenerate] = 1.0 / K
    Pi_hat = Z / np.abs(Z).sum(axis=1, keepdims=True)
    return Pi_hat, degenerate.tolist()


def ideal_scd(omega, K, seed=0):
    """Exact membership recovery from a rank-K expectation matrix.

    Raises when the input does not have numerical rank K, since exactness
    is only meaningful in that regime, and on non-finite input or K outside
    1..n.
    """
    omega = np.asarray(omega, dtype=float)
    if not np.all(np.isfinite(omega)):
        raise ValueError("expectation matrix has non-finite entries")
    if not 1 <= K <= omega.shape[0]:
        raise ValueError(f"K={K} out of range for n={omega.shape[0]}")
    sv = np.linalg.svd(omega, compute_uv=False)
    if sv[K - 1] <= 1e-10 * sv[0] or (K < len(sv) and sv[K] > 1e-8 * sv[0]):
        raise EstimationError(
            f"expectation matrix must have rank exactly {K}; singular values around the "
            f"cut are {sv[max(0, K - 2):K + 2]}")
    pair = _spectral.top_k_eigs(omega, K)
    normalized = _spectral.row_normalize(pair.U)
    corner_set = _corners.svm_cone_corners(normalized, K, seed)
    Z, clamped = _reconstruct(pair.U, pair.eigenvalues, normalized.matrix, corner_set.indices)
    if clamped:
        raise EstimationError(
            "corner-spectrum diagonal has negative entries; input is not an exact "
            "rank-K expectation matrix")
    Pi_hat, degenerate = _rows_to_simplex(Z, K)
    return EstimationResult(Pi_hat=Pi_hat, corner_set=corner_set, Z=Z,
                            degenerate_rows=degenerate, method="ideal_scd")


def scd(A, K, seed=0, pair=None):
    """Empirical membership estimate from a symmetric adjacency matrix.

    Negative entries of the reconstruction are clamped to zero before the
    row normalization; rows that clamp to all zeros (isolated nodes) are
    set to the uniform membership and reported in ``degenerate_rows``.
    ``pair``, when given, is ``top_k_eigs(A, K)`` computed by the caller.
    """
    if pair is None:
        pair = _spectral.top_k_eigs(A, K)
    normalized = _spectral.row_normalize(pair.U)
    corner_set = _corners.svm_cone_corners(normalized, K, seed)
    Z, clamped = _reconstruct(pair.U, pair.eigenvalues, normalized.matrix, corner_set.indices)
    Z = np.maximum(Z, 0.0)
    Pi_hat, degenerate = _rows_to_simplex(Z, K)
    degenerate = sorted(set(degenerate) | set(normalized.degenerate))
    return EstimationResult(Pi_hat=Pi_hat, corner_set=corner_set, Z=Z,
                            degenerate_rows=degenerate, method="scd",
                            clamped_diag_count=clamped)


def dfsp(A, K, seed=0, pair=None):
    """Separable-factorization baseline without degree correction.

    Corners come from successive projection on the raw eigenvector rows;
    the membership is the clamped projection onto the corner basis. The
    seed is accepted for interface parity but the pipeline is
    deterministic. ``pair`` is as in ``scd``.
    """
    if pair is None:
        pair = _spectral.top_k_eigs(A, K)
    corner_set = _corners.spa_corners(pair.U, K)
    B = pair.U[corner_set.indices]
    Y = np.maximum(0.0, pair.U @ _corner_block_inverse(B, "eigenvector"))
    Pi_hat, degenerate = _rows_to_simplex(Y, K)
    return EstimationResult(Pi_hat=Pi_hat, corner_set=corner_set, Z=Y,
                            degenerate_rows=degenerate, method="dfsp")


ESTIMATORS = {"scd": scd, "dfsp": dfsp}


def estimate(method, A, K, seed=0, pair=None):
    """Fit ``method`` to ``A``; ``pair`` is a precomputed ``top_k_eigs(A, K)``
    that a caller fitting several methods to one ``A`` shares among them."""
    try:
        fn = ESTIMATORS[method]
    except KeyError:
        raise ValueError(f"unknown method {method!r}; expected one of {sorted(ESTIMATORS)}")
    return fn(A, K, seed=seed, pair=pair)
