"""Leading-K eigenpairs ordered by magnitude, and row normalization.

Magnitude ordering matters here because valid block matrices can carry
negative entries, so informative eigenvalues may sit at either end of the
spectrum. Dense inputs up to ``DENSE_LIMIT`` use a full symmetric solve;
larger ones use Lanczos iterations on both spectrum ends, merged by
magnitude. The Lanczos solvers start from a fixed vector, so repeated
calls on the same input are bitwise equal.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.linalg import eigsh, svds

DENSE_LIMIT = 2000
ZERO_ROW_TOL = 1e-12
SYMMETRY_TOL = 1e-8


@dataclass
class SpectralPair:
    """Eigenvector matrix with orthonormal columns plus eigenvalues in
    decreasing magnitude order. Column signs are fixed so each column's
    largest-magnitude entry is positive."""

    U: np.ndarray
    eigenvalues: np.ndarray
    residual: float = 0.0


@dataclass
class NormalizedRows:
    """Unit-norm rows of an eigenvector matrix.

    Rows whose norm falls below ``ZERO_ROW_TOL`` (isolated nodes) are
    replaced by e1 and listed in ``degenerate``; they are reported, not
    fatal, so that real data with isolated nodes still runs.
    """

    matrix: np.ndarray
    row_norms: np.ndarray
    degenerate: list = field(default_factory=list)


def _start_vector(n):
    """Fixed Lanczos start vector: ARPACK would otherwise draw a random one."""
    return np.random.Generator(np.random.Philox(key=np.uint64(0))).uniform(-1.0, 1.0, n)


def _order_by_magnitude(vals, K):
    idx = sorted(range(len(vals)), key=lambda i: (-abs(vals[i]), 0 if vals[i] > 0 else 1, i))
    return idx[:K]


def _fix_signs(U):
    for k in range(U.shape[1]):
        j = int(np.argmax(np.abs(U[:, k])))
        if U[j, k] < 0:
            U[:, k] = -U[:, k]
    return U


def top_k_eigs(M, K, dense_limit=DENSE_LIMIT):
    """The K largest-magnitude eigenpairs of a symmetric real matrix.

    Ties between +x and -x order the positive eigenvalue first, then by
    original index; both rules exist only to make runs reproducible.
    Raises on asymmetric input; warns when the K-th eigenvalue is
    negligible relative to the first (rank deficiency).
    """
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    if M.ndim != 2 or M.shape[1] != n:
        raise ValueError("matrix must be square")
    scale = np.max(np.abs(M)) or 1.0
    if np.max(np.abs(M - M.T)) > SYMMETRY_TOL * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    if not 1 <= K <= n:
        raise ValueError(f"K={K} out of range for n={n}")

    if n <= dense_limit or 2 * K >= n - 1:
        vals, vecs = np.linalg.eigh(M)
        pick = _order_by_magnitude(vals, K)
        lam = vals[pick]
        U = vecs[:, pick].copy()
    else:
        k_end = min(K, n - 2)
        v0 = _start_vector(n)
        hi_vals, hi_vecs = eigsh(M, k=k_end, which="LA", v0=v0)
        lo_vals, lo_vecs = eigsh(M, k=k_end, which="SA", v0=v0)
        vals = np.concatenate([hi_vals, lo_vals])
        vecs = np.hstack([hi_vecs, lo_vecs])
        pick = _order_by_magnitude(vals, K)
        lam = vals[pick]
        U = vecs[:, pick].copy()

    U = _fix_signs(U)
    if abs(lam[-1]) < 1e-12 * max(abs(lam[0]), 1e-300):
        warnings.warn(
            f"eigenvalue {K} is negligible ({lam[-1]:.3g} vs {lam[0]:.3g}); "
            "input may have rank below K",
            RuntimeWarning,
            stacklevel=2,
        )
    normM = np.linalg.norm(M)
    residual = float(np.linalg.norm(M @ U - U * lam) / normM) if normM > 0 else 0.0
    return SpectralPair(U=U, eigenvalues=lam, residual=residual)


def row_normalize(U):
    """Divide each row by its Euclidean norm; flag zero rows and set them to e1."""
    U = np.asarray(U, dtype=float)
    norms = np.linalg.norm(U, axis=1)
    degenerate = np.where(norms < ZERO_ROW_TOL)[0]
    safe = np.where(norms < ZERO_ROW_TOL, 1.0, norms)
    out = U / safe[:, None]
    if degenerate.size:
        out[degenerate] = 0.0
        out[degenerate, 0] = 1.0
    return NormalizedRows(matrix=out, row_norms=norms, degenerate=degenerate.tolist())


def top_singular_values(M, m, dense_limit=DENSE_LIMIT):
    """The m largest singular values, nonincreasing."""
    M = np.asarray(M, dtype=float)
    n = min(M.shape)
    if not 1 <= m <= n:
        raise ValueError(f"m={m} out of range for min dimension {n}")
    if n <= dense_limit or m >= n - 1:
        sv = np.linalg.svd(M, compute_uv=False)
    else:
        sv = np.sort(svds(M, k=m, v0=_start_vector(n), return_singular_vectors=False))[::-1]
    return sv[:m]
