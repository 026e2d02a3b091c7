"""Corner (pure-node) row selection for row-normalized eigenvector matrices.

The population version of a row-normalized eigenvector matrix is a cone:
every row is a nonnegative combination of K corner rows, and the corners
are the rows of pure nodes. Two selection routes live here:

* ``svm_cone_corners`` ranks rows by their one-class max-margin value
  (corners have minimal margin) and clusters the minimal-margin band, or
  the lowest-margin rows when the band stays small, into K groups on the
  sphere; a band that collapses is clustered again over every usable row,
  and is an error if that collapses too. A non-pointed empirical hull
  (negative off-diagonal blocks under heavy noise) carries no corner
  information in its margins, so it takes the successive-projection pick
  on the degree-weighted rows instead.
* ``spa_corners`` is the classical successive-projection pick used by the
  separable-factorization baseline: repeatedly take the max-norm row and
  project the rest onto its orthocomplement.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

QP_TOL = 1e-8
KMEANS_RESTARTS = 10
KMEANS_MAX_ITER = 300
DELTA_CAP = 0.5
FLOOR_FRAC = 0.25


class CornerFindingError(RuntimeError):
    """Corner selection failed; carries a certificate when one exists."""

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate


@dataclass
class MarginSolution:
    """Minimum-norm vector w with w . y_i >= 1 for all rows y_i, plus the
    per-row margins w . y_i."""

    w: np.ndarray
    row_margins: np.ndarray


@dataclass
class CornerSet:
    indices: np.ndarray
    margins: np.ndarray
    candidates: np.ndarray = field(default_factory=lambda: np.array([], dtype=int))
    cluster_assignments: np.ndarray = field(default_factory=lambda: np.array([], dtype=int))


def _dual_ascent(Y, box, max_iter):
    """FISTA on the dual max 1'a - 0.5 ||Y'a||^2 over 0 <= a <= box.

    Returns (alpha, w, margins, gap). gap is the certified duality gap when
    the primal iterate is feasible (min margin > 0), else inf; the loop
    stops early only on that certificate, so infeasible input runs to
    ``max_iter``.
    """
    Y = np.asarray(Y, dtype=float)
    n, K = Y.shape
    G = Y.T @ Y
    L = max(float(np.linalg.eigvalsh(G)[-1]), 1e-12)
    a = np.zeros(n)
    z = a.copy()
    t = 1.0
    gap = np.inf
    for it in range(max_iter):
        w = Y.T @ z
        grad = 1.0 - Y @ w
        a_new = np.clip(z + grad / L, 0.0, box)
        t_new = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
        z = a_new + ((t - 1.0) / t_new) * (a_new - a)
        a, t = a_new, t_new
        if it % 50 == 49:
            w = Y.T @ a
            margins = Y @ w
            mmin = margins.min()
            if mmin > 1e-12:
                wf = w / mmin
                dual = a.sum() - 0.5 * np.dot(w, w)
                gap = 0.5 * np.dot(wf, wf) - dual
                if gap <= QP_TOL:
                    break
    w = Y.T @ a
    return a, w, Y @ w, gap


def one_class_margin(points):
    """Solve min ||w||^2 subject to w . y_i >= 1 over unit-norm rows y_i.

    Infeasible inputs (the rows' conic hull is not pointed) raise a
    ``CornerFindingError`` whose certificate is a convex combination of the
    rows with near-zero norm.
    """
    Y = np.asarray(points, dtype=float)
    norms = np.linalg.norm(Y, axis=1)
    if np.any(np.abs(norms - 1.0) > 1e-6):
        raise ValueError("one_class_margin expects unit-norm rows")
    a, w, margins, gap = _dual_ascent(Y, box=1e4, max_iter=30_000)
    mmin = margins.min()
    if mmin <= 1e-12 or not np.isfinite(gap) or gap > np.sqrt(QP_TOL):
        lam = a / a.sum() if a.sum() > 0 else np.full(len(a), 1.0 / len(a))
        resid = float(np.linalg.norm(Y.T @ lam))
        raise CornerFindingError(
            "no hyperplane through the origin separates the rows "
            f"(convex weights with combination norm {resid:.3g} certify a non-pointed hull)",
            certificate=lam,
        )
    w = w / mmin
    return MarginSolution(w=w, row_margins=Y @ w)


def spherical_kmeans(points, K, seed):
    """Cosine k-means on unit rows; best of ``KMEANS_RESTARTS`` runs by the
    within-cluster cosine-distance objective. Empty clusters re-seed at the
    point farthest from its current center."""
    X = np.asarray(points, dtype=float)
    m = X.shape[0]
    if m < K:
        raise ValueError(f"need at least K={K} points, got {m}")
    rng = np.random.default_rng(np.random.Philox(key=np.uint64(int(seed) & 0xFFFFFFFFFFFFFFFF)))
    best = None
    for _ in range(KMEANS_RESTARTS):
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
        for _ in range(KMEANS_MAX_ITER):
            for k in range(K):
                if not np.any(labels == k):
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


def svm_cone_corners(normalized, K, seed):
    """Pick K corner rows of a row-normalized eigenvector matrix, given as
    the ``spectral.NormalizedRows`` that ``spectral.row_normalize`` returns.

    On a pointed hull the candidates are the minimal-margin band, widened
    geometrically up to ``DELTA_CAP`` until it holds ``max(2K, FLOOR_FRAC
    * rows)`` rows, else that many lowest-margin rows. One spherical
    k-means pass splits them into K clusters, each represented by its
    member closest to the center (lowest index among ties). A band that
    collapses into fewer than K clusters gets one more pass over every
    usable row (sparse draws where most rows are degenerate need it), then
    ``CornerFindingError``. The corner block's condition is checked only
    by the estimator that inverts it. Degenerate rows are never candidates.

    When the minimum margin is not positive, no hyperplane through the
    origin separates the rows, so the margins say nothing about which rows
    are pure: the corners are the successive-projection pick on the
    degree-weighted rows (unit rows times their pre-normalization norms),
    whose largest rows belong to the high-degree, least noisy nodes. That
    route reports every usable row as a candidate under one cluster label.
    """
    X, row_norms = normalized.matrix, normalized.row_norms
    n = X.shape[0]
    if n < K:
        raise CornerFindingError(f"cannot find {K} corners among {n} rows")
    usable = np.setdiff1d(np.arange(n), np.asarray(normalized.degenerate, dtype=int))
    if usable.size < K:
        raise CornerFindingError(
            f"only {usable.size} non-degenerate rows but K={K}; try a smaller K")
    Y = X[usable]
    # ranking-quality margins: a small box and iteration cap keep noisy
    # (often non-pointed) inputs cheap; the ordering stabilizes early
    _, _, margins_u, _ = _dual_ascent(Y, box=100.0, max_iter=3000)
    mmin = margins_u.min()
    margins = np.full(n, np.inf)
    margins[usable] = margins_u
    if mmin <= 0:
        # non-pointed empirical hull: greedy pick on the degree-weighted rows
        weighted = X[usable] * row_norms[usable, None]
        return CornerSet(indices=np.sort(usable[spa_corners(weighted, K).indices]),
                         margins=margins, candidates=usable,
                         cluster_assignments=np.zeros(usable.size, dtype=int))

    floor = min(usable.size, max(2 * K, int(np.ceil(FLOOR_FRAC * usable.size))))
    order = usable[np.argsort(margins_u, kind="stable")]
    delta = 1e-6
    cand = usable[margins_u <= (1.0 + delta) * mmin]
    while cand.size < floor and delta < DELTA_CAP:
        delta = min(max(delta * 1.5, 1e-4), DELTA_CAP)
        cand = usable[margins_u <= (1.0 + delta) * mmin]
    if cand.size < floor:
        cand = order[:floor]

    labels, centers = spherical_kmeans(X[cand], K, seed)
    if np.unique(labels).size < K and cand.size < usable.size:
        cand = order
        labels, centers = spherical_kmeans(X[cand], K, seed)
    if np.unique(labels).size < K:
        raise CornerFindingError(
            f"candidate rows collapse into fewer than {K} clusters; try a smaller K")
    corners = []
    for k in range(K):
        members = cand[labels == k]
        score = X[members] @ centers[k]
        corners.append(int(members[score >= score.max() - 1e-12].min()))
    return CornerSet(indices=np.array(sorted(corners), dtype=int), margins=margins,
                     candidates=cand, cluster_assignments=labels)


def spa_corners(U, K):
    """Successive projection: greedy max-norm row picks with orthogonal
    deflation. Exact on separable inputs that contain the pure rows."""
    R = np.array(U, dtype=float)
    n = R.shape[0]
    if not 1 <= K <= n:
        raise ValueError(f"K={K} out of range for {n} rows")
    picked = []
    norms0 = np.linalg.norm(np.asarray(U, dtype=float), axis=1)
    for _ in range(K):
        norms = np.linalg.norm(R, axis=1)
        if np.all(norms < 1e-12):
            raise CornerFindingError(
                f"rows are rank deficient: only {len(picked)} independent directions found "
                f"before {K} picks")
        j = int(np.argmax(norms))
        picked.append(j)
        u = R[j] / norms[j]
        R = R - np.outer(R @ u, u)
    return CornerSet(indices=np.array(picked, dtype=int), margins=norms0)
