"""Membership estimators: the population-oracle pipeline, its empirical
version, and the separable-factorization baseline.

All three share the same skeleton: leading-K eigenpairs, corner rows, then
a reconstruction that maps each node's eigenvector row onto the simplex
spanned by the corners. The empirical estimator additionally clamps
negatives and routes all-zero rows to the uniform vector so isolated
nodes never abort a fit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import corners as _corners
from . import spectral as _spectral

ZERO_L1_TOL = 1e-12
COND_LIMIT = 1e12


class EstimationError(RuntimeError):
    pass


@dataclass
class EstimationResult:
    Pi_hat: np.ndarray
    corner_set: _corners.CornerSet
    Z: np.ndarray
    degenerate_rows: list = field(default_factory=list)
    method: str = "scd"
    clamped_diag_count: int = 0

    @property
    def corner_indices(self):
        return self.corner_set.indices

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


def _reconstruct(U, lam, Ustar, corner_idx, clamp):
    """Z = U B^{-1} sqrt(diag(B Lambda B')) for corner rows B = Ustar[corners]."""
    B = Ustar[corner_idx]
    d = np.einsum("ij,j,ij->i", B, lam, B)
    clamped = int(np.sum(d < 0))
    if clamp:
        d = np.maximum(d, 0.0)
    elif clamped:
        raise EstimationError(
            "corner-spectrum diagonal has negative entries; input is not an exact "
            "rank-K expectation matrix")
    Z = U @ _corner_block_inverse(B, "row-normalized") @ np.diag(np.sqrt(d))
    return Z, clamped


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
    is only meaningful in that regime.
    """
    omega = np.asarray(omega, dtype=float)
    sv = np.linalg.svd(omega, compute_uv=False)
    if sv[K - 1] <= 1e-10 * sv[0] or (K < len(sv) and sv[K] > 1e-8 * sv[0]):
        raise EstimationError(
            f"expectation matrix must have rank exactly {K}; singular values around the "
            f"cut are {sv[max(0, K - 2):K + 2]}")
    pair = _spectral.top_k_eigs(omega, K)
    normalized = _spectral.row_normalize(pair.U)
    corner_set = _corners.svm_cone_corners(normalized, K, seed)
    Z, _ = _reconstruct(pair.U, pair.eigenvalues, normalized.matrix,
                        corner_set.indices, clamp=False)
    Pi_hat, degenerate = _rows_to_simplex(Z, K)
    return EstimationResult(Pi_hat=Pi_hat, corner_set=corner_set, Z=Z,
                            degenerate_rows=degenerate, method="ideal_scd")


def scd(A, K, seed=0):
    """Empirical membership estimate from a symmetric adjacency matrix.

    Negative entries of the reconstruction are clamped to zero before the
    row normalization; rows that clamp to all zeros (isolated nodes) are
    set to the uniform membership and reported in ``degenerate_rows``.
    """
    A = np.asarray(A, dtype=float)
    if K < 1:
        raise ValueError("K must be >= 1")
    pair = _spectral.top_k_eigs(A, K)
    normalized = _spectral.row_normalize(pair.U)
    corner_set = _corners.svm_cone_corners(normalized, K, seed)
    Z, clamped = _reconstruct(pair.U, pair.eigenvalues, normalized.matrix,
                              corner_set.indices, clamp=True)
    Z = np.maximum(Z, 0.0)
    Pi_hat, degenerate = _rows_to_simplex(Z, K)
    degenerate = sorted(set(degenerate) | set(normalized.degenerate))
    return EstimationResult(Pi_hat=Pi_hat, corner_set=corner_set, Z=Z,
                            degenerate_rows=degenerate, method="scd",
                            clamped_diag_count=clamped)


def dfsp(A, K, seed=0):
    """Separable-factorization baseline without degree correction.

    Corners come from successive projection on the raw eigenvector rows;
    the membership is the clamped projection onto the corner basis. The
    seed is accepted for interface parity but the pipeline is
    deterministic.
    """
    A = np.asarray(A, dtype=float)
    if K < 1:
        raise ValueError("K must be >= 1")
    pair = _spectral.top_k_eigs(A, K)
    corner_set = _corners.spa_corners(pair.U, K)
    B = pair.U[corner_set.indices]
    Y = np.maximum(0.0, pair.U @ _corner_block_inverse(B, "eigenvector"))
    Pi_hat, degenerate = _rows_to_simplex(Y, K)
    return EstimationResult(Pi_hat=Pi_hat, corner_set=corner_set, Z=Y,
                            degenerate_rows=degenerate, method="dfsp")


ESTIMATORS = {"scd": scd, "dfsp": dfsp}


def estimate(method, A, K, seed=0):
    try:
        fn = ESTIMATORS[method]
    except KeyError:
        raise ValueError(f"unknown method {method!r}; expected one of {sorted(ESTIMATORS)}")
    return fn(A, K, seed=seed)
