"""Leading-K eigenpairs ordered by magnitude, and row normalization.

Magnitude ordering matters here because valid block matrices can carry
negative entries, so informative eigenvalues may sit at either end of the
spectrum. Each eigenpair or scree question is one Lanczos call (ARPACK's
``eigsh``) from a fixed start vector. When the Krylov space closes early,
ARPACK asks for a restart vector. On scipy releases whose ``eigsh`` takes
``rng``, that vector comes from a fixed generator, so repeated calls, in
one process or several, are bitwise equal; older releases promise that
only when no restart is needed. Only K >= n - 1 takes a full symmetric
solve. Input is a dense array or a scipy.sparse matrix; the type picks
the route. The checks take the scale from the extremes, with no |M|
temporary. A sparse matrix stays sparse through the checks and the
Lanczos call, so a loaded network costs what its edges cost, and is made
dense only for the full solve.

The reported residual's two Frobenius norms are elementwise reductions,
not BLAS calls. OpenBLAS splits a dot of more than 10,000 entries across
its worker threads, which then spin for about 60 ms; on a dense n=400
draw or a loaded network that spin would take a core from every fit.
Outside ARPACK's own BLAS calls and the full solve, a fit wakes no
worker pool.
"""

from __future__ import annotations

import inspect
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix, issparse
from scipy.sparse.linalg import eigsh

from .model import _stream

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


# ARPACK asks for a random restart vector when the Krylov space closes
# early; a fixed generator keeps that draw, and so the result, repeatable.
# Older scipy releases have no ``rng`` parameter; there the draw is left to
# scipy's ARPACK, and repeated calls are not promised to agree.
_EIGSH_RNG = {"rng": 0} if "rng" in inspect.signature(eigsh).parameters else {}


def _start_vector(n):
    """Fixed Lanczos start vector: ARPACK would otherwise draw a random one."""
    return _stream(0).uniform(-1.0, 1.0, n)


def _order_by_magnitude(vals, K):
    idx = sorted(range(len(vals)), key=lambda i: (-abs(vals[i]), 0 if vals[i] > 0 else 1, i))
    return idx[:K]


def _fix_signs(U):
    for k in range(U.shape[1]):
        j = int(np.argmax(np.abs(U[:, k])))
        if U[j, k] < 0:
            U[:, k] = -U[:, k]
    return U


def _frobenius(x):
    """Frobenius norm as an elementwise sum: ``np.linalg.norm`` would take a
    BLAS dot, which wakes OpenBLAS's workers past 10,000 entries."""
    x = x.ravel()
    return float(np.sqrt(np.einsum("i,i->", x, x)))


def _non_finite(M):
    """How many entries of ``M`` are not finite, and the first in row-major
    order; a canonical CSR matrix stores its entries in that order."""
    if issparse(M):
        C = M.tocoo()
        bad = np.flatnonzero(~np.isfinite(C.data))
        return bad.size, (C.row[bad[0]], C.col[bad[0]])
    bad = np.argwhere(~np.isfinite(M))
    return len(bad), tuple(bad[0])


def top_k_eigs(M, K):
    """The K largest-magnitude eigenpairs of a symmetric real matrix.

    One Lanczos call for K < n - 1, the full symmetric solve otherwise.
    Ties between +x and -x order the positive eigenvalue first, then by
    original index. That rule holds in full only on the full solve: the
    Lanczos call returns only K eigenpairs, so ARPACK breaks an exact tie
    at the K-th magnitude, reproducibly given the fixed start and restart
    vectors.
    Raises on non-finite, all-zero or asymmetric input; warns when the K-th
    eigenvalue is negligible relative to the first (rank deficiency).
    ``M`` is a dense array or a scipy.sparse matrix, which is not densified
    below K = n - 1; both take the same checks with the same messages.
    """
    sparse = issparse(M)
    if sparse:
        # a canonical copy: duplicates summed, so the stored values are the entries
        M = csr_matrix(M, dtype=float, copy=True)
        M.sum_duplicates()
    else:
        M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("matrix must be square")
    n = M.shape[0]
    entries = M.data if sparse else M
    # max |entry| from the extremes: no |M| temporary
    scale = max(-entries.min(initial=0.0), entries.max(initial=0.0))
    if not np.isfinite(scale):
        count, (i, j) = _non_finite(M)
        raise ValueError(f"matrix has {count} non-finite entries, "
                         f"the first ({i},{j}) = {M[i, j]}")
    if scale == 0:
        raise ValueError(f"matrix is all zero ({n}x{n}): its leading eigenvectors are undefined")
    # M - M.T is antisymmetric, so its max is its max |entry|, with no |.| temporary
    if (M - M.T).max() > SYMMETRY_TOL * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    if not 1 <= K <= n:
        raise ValueError(f"K={K} out of range for n={n}")

    if K < n - 1:
        vals, vecs = eigsh(M, k=K, which="LM", v0=_start_vector(n), **_EIGSH_RNG)
    else:
        vals, vecs = np.linalg.eigh(M.toarray() if sparse else M)
    pick = _order_by_magnitude(vals, K)
    lam = vals[pick]
    U = _fix_signs(vecs[:, pick].copy())
    if abs(lam[-1]) < 1e-12 * abs(lam[0]):
        warnings.warn(
            f"eigenvalue {K} is negligible ({lam[-1]:.3g} vs {lam[0]:.3g}); "
            "input may have rank below K",
            RuntimeWarning,
            stacklevel=2,
        )
    normM = _frobenius(entries)
    residual = _frobenius(M @ U - U * lam) / normM if normM > 0 else 0.0
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


def top_singular_values(M, m):
    """The m largest singular values of a symmetric matrix: ``top_k_eigs`` magnitudes."""
    return np.abs(top_k_eigs(M, m).eigenvalues)
