"""Corner (pure-node) row selection for row-normalized eigenvector matrices.

The population version of a row-normalized eigenvector matrix is a cone:
every row is a nonnegative combination of K corner rows, and the corners
are the rows of pure nodes. Two selection routes live here:

* ``svm_cone_corners`` ranks rows by their one-class max-margin value
  (corners have minimal margin), solved exactly as one least-distance
  problem by an in-house Lawson-Hanson nonnegative least squares
  (``_nnls``, at most 3 least-squares steps per row, scipy's default
  bound), and clusters the minimal-margin band, or the lowest-margin rows
  when the band stays small, into K groups on the sphere with
  ``spherical_kmeans``, whose restarts run together in arrays; a band that
  collapses into fewer than K groups is an error. Rows whose margins agree
  to ``DELTA_MIN`` enter the k-means in row order, so the solver's last
  bits never order them. A non-pointed empirical
  hull (negative off-diagonal blocks under heavy noise) has no max-margin
  solution, so ``one_class_margin`` returns ``None`` and the corners are
  the successive-projection pick on the degree-weighted rows instead.
* ``spa_corners`` is the classical successive-projection pick used by the
  separable-factorization baseline: repeatedly take the max-norm row and
  project the rest onto its orthocomplement.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import _stream

# NNLS residual at or below which the origin is in the rows' convex hull:
# non-pointed sweep draws give about 1e-16, the thinnest pointed ones 4e-4
HULL_TOL = 1e-10
KMEANS_RESTARTS = 10
KMEANS_MAX_ITER = 300
DELTA_MIN = 1e-6
DELTA_CAP = 0.5
FLOOR_FRAC = 0.25


class EstimationError(RuntimeError):
    """No valid estimate for this input: the one fit-failure type, raised
    here and in ``estimators``."""


@dataclass
class CornerSet:
    """K corner row indices and the per-row values that chose them.

    From ``svm_cone_corners``, ``margins`` holds ``inf`` on degenerate
    rows; on a pointed hull it holds each usable row's exact one-class
    margin (minimum 1), and on a non-pointed hull ``0`` on every usable
    row. From ``spa_corners`` it holds the input row norms.
    """

    indices: np.ndarray
    margins: np.ndarray
    candidates: np.ndarray = field(default_factory=lambda: np.array([], dtype=int))
    cluster_assignments: np.ndarray = field(default_factory=lambda: np.array([], dtype=int))


def _nnls(E, f, maxiter=None):
    """u >= 0 minimizing ||E u - f||, and that residual norm.

    Lawson and Hanson's active-set method (*Solving Least Squares
    Problems*, ch. 23) with scipy's tolerance, 10 * max(E.shape) * eps, on
    the dual vector and on the dropped coefficients. The least squares on
    the passive set runs over at most ``E.shape[0]`` independent columns. A
    column whose new coefficient is not positive is dependent on the
    passive ones and is set aside until the dual is next updated, as in
    the book's step 5. More than ``maxiter`` least-squares steps (default
    ``3 * E.shape[1]``, scipy's bound) raise ``EstimationError``.
    """
    m = E.shape[1]
    maxiter = 3 * m if maxiter is None else maxiter
    tol = 10 * max(E.shape) * np.finfo(float).eps
    u, passive = np.zeros(m), np.zeros(m, dtype=bool)
    dual = E.T @ f
    steps = 0

    def solve():
        nonlocal steps
        steps += 1
        if steps > maxiter:
            raise EstimationError(
                f"the margin solve did not converge in {maxiter} least-squares steps")
        s = np.zeros(m)
        s[passive] = np.linalg.lstsq(E[:, passive], f, rcond=None)[0]
        return s

    while True:
        free = ~passive & (dual > tol)
        if not free.any():
            break
        k = int(np.argmax(np.where(free, dual, -np.inf)))
        passive[k] = True
        s = solve()
        if s[k] <= 0:
            passive[k], dual[k] = False, 0.0
            continue
        while (s[passive] <= 0).any():
            neg = passive & (s <= 0)
            alpha = np.min(u[neg] / (u[neg] - s[neg]))
            u += alpha * (s - u)
            passive &= u > tol
            s = solve()
        u = s
        dual = E.T @ (f - E @ u)
    return u, float(np.linalg.norm(E @ u - f))


def one_class_margin(points):
    """Per-row margins w . y_i of the w minimizing ||w||^2 subject to
    w . y_i >= 1 over unit-norm rows y_i, or ``None`` when the rows' hull
    is not pointed.

    This is least-distance programming, solved exactly by one nonnegative
    least-squares problem (Lawson and Hanson, *Solving Least Squares
    Problems*, ch. 23): u >= 0 minimizing ||E u - e_{K+1}|| with
    E = [Y'; 1'], by the in-house ``_nnls`` in at most 3 least-squares
    steps per row; more raise an ``EstimationError``. A residual of at most
    ``HULL_TOL`` puts the origin in the rows' convex hull (u / sum(u) are
    convex weights with Y'u ~ 0), so no w exists and the result is
    ``None``. Otherwise, with residual r, w = -r[:K] / r[K] and
    ||w||^2 = 1 / ||r||^2 - 1, since r[K] = -||r||^2 at the solution.
    Float resolves r[K] = sum(u) - 1 against the 1 only when ||r||^2 is
    above about eps; below that its rounding error scales every margin
    alike, which leaves their ranking as it is, but where r[K] rounds to
    zero or above w is undefined, and the result is ``None`` as well. So
    the margins are always finite.
    """
    Y = np.asarray(points, dtype=float)
    norms = np.linalg.norm(Y, axis=1)
    if not np.all(np.abs(norms - 1.0) <= 1e-6):  # a NaN row fails too
        raise ValueError("one_class_margin expects unit-norm rows")
    E = np.vstack([Y.T, np.ones(len(Y))])
    f = np.zeros(E.shape[0])
    f[-1] = 1.0
    u, rnorm = _nnls(E, f)
    r = E @ u - f
    if rnorm <= HULL_TOL or not r[-1] < 0:
        return None
    return Y @ (-r[:-1] / r[-1])


def _kmeanspp_seed(X, K, rng):
    """k-means++ start indices under cosine distance."""
    m = X.shape[0]
    idx = [int(rng.integers(m))]
    for _ in range(K - 1):
        d = np.maximum(0.0, np.min(1.0 - X @ X[idx].T, axis=1))
        total = d.sum()
        if total <= 1e-15:
            idx.append(int(rng.integers(m)))
        else:
            idx.append(int(rng.choice(m, p=d / total)))
    return idx


def _reseed_empty(X, C, labels):
    """Move each empty cluster's center, in cluster order, to the point
    farthest from its current center; returns the new labels."""
    for k in range(C.shape[0]):
        if not np.any(labels == k):
            far = int(np.argmin(np.max(X @ C.T, axis=1)))
            C[k] = X[far]
            labels = np.argmax(X @ C.T, axis=1)
    return labels


def spherical_kmeans(points, K, seed):
    """Cosine k-means on unit rows; best of ``KMEANS_RESTARTS`` runs by the
    within-cluster cosine-distance objective. Empty clusters re-seed at the
    point farthest from its current center.

    All restarts' k-means++ seeds are drawn first, in restart order, and
    their Lloyd steps then run together in arrays; a restart stops when its
    labels repeat and its centers pass ``np.allclose``. Each restart takes
    the same arithmetic as it would alone, so the result does not depend
    on the batching. That includes the sign of a zero: cluster sums start
    from +0.0, as numpy 2.4's ``mean(axis=0)`` does, so a coordinate whose
    members all hold -0.0 averages to +0.0 either way. A numpy whose
    reduction starts from the first member would differ there alone.
    """
    X = np.asarray(points, dtype=float)
    m = X.shape[0]
    if m < K:
        raise ValueError(f"need at least K={K} points, got {m}")
    rng = _stream(seed)
    C = X[[_kmeanspp_seed(X, K, rng) for _ in range(KMEANS_RESTARTS)]]
    labels = np.argmax(X @ C.transpose(0, 2, 1), axis=2)
    running = np.arange(KMEANS_RESTARTS)
    for _ in range(KMEANS_MAX_ITER):
        if not running.size:
            break
        Cr, Lr = C[running], labels[running]
        rows = np.arange(running.size)[:, None]
        counts = np.bincount((Lr + K * rows).ravel(), minlength=running.size * K)
        counts = counts.reshape(running.size, K)
        for r in np.flatnonzero((counts == 0).any(axis=1)):
            Lr[r] = _reseed_empty(X, Cr[r], Lr[r])
            counts[r] = np.bincount(Lr[r], minlength=K)
        # member sums in row order from +0.0, as each cluster's own
        # mean(axis=0) adds them
        sums = np.zeros(Cr.shape)
        np.add.at(sums, (rows, Lr), X)
        means = sums / np.maximum(counts, 1)[..., None]
        # one stacked dot per center, the BLAS dot np.linalg.norm takes, so
        # the bits match a per-center norm; an empty cluster's zero mean
        # fails the norm test and keeps its center
        flat = means.reshape(-1, 1, means.shape[2])
        norms = np.sqrt((flat @ flat.transpose(0, 2, 1)).ravel())
        norms = norms.reshape(counts.shape)[..., None]
        newC = np.divide(means, norms, out=Cr.copy(), where=norms > 1e-15)
        new_labels = np.argmax(X @ newC.transpose(0, 2, 1), axis=2)
        # np.allclose's test, written out per restart
        done = ((new_labels == Lr).all(axis=1)
                & (np.abs(newC - Cr) <= 1e-8 + 1e-5 * np.abs(Cr)).all(axis=(1, 2)))
        C[running], labels[running] = newC, new_labels
        running = running[~done]
    best = None
    for Cr, Lr in zip(C, labels):
        obj = float(np.sum(1.0 - np.sum(X * Cr[Lr], axis=1)))
        if best is None or obj < best[0] - 1e-12:
            best = (obj, Lr, Cr)
    return best[1].copy(), best[2].copy()


def svm_cone_corners(normalized, K, seed):
    """Pick K corner rows of a row-normalized eigenvector matrix, given as
    the ``spectral.NormalizedRows`` that ``spectral.row_normalize`` returns.

    On a pointed hull the candidates are the minimal-margin band of
    ``one_class_margin``'s exact margins, widened geometrically up to
    ``DELTA_CAP`` until it holds ``max(2K, FLOOR_FRAC * rows)`` rows, else
    that many lowest-margin rows, where the narrowest band (``DELTA_MIN``)
    ranks as equal and comes first in row order. One spherical k-means pass
    splits them into K clusters, each represented by its member closest to
    the center (lowest index among ties); candidates that collapse into
    fewer than K clusters raise ``EstimationError``. The corner block's
    condition is checked only by the estimator that inverts it. Degenerate
    rows are never candidates.

    When ``one_class_margin`` returns ``None``, no hyperplane through the
    origin separates the rows and there are no margins to rank, so the
    corners are the successive-projection pick on the degree-weighted rows
    (unit rows times their pre-normalization norms), whose largest rows
    belong to the high-degree, least noisy nodes. That route reports every
    usable row as a candidate under one cluster label.
    """
    X, row_norms = normalized.matrix, normalized.row_norms
    n = X.shape[0]
    if n < K:
        raise EstimationError(f"cannot find {K} corners among {n} rows")
    usable = np.setdiff1d(np.arange(n), np.asarray(normalized.degenerate, dtype=int))
    if usable.size < K:
        raise EstimationError(
            f"only {usable.size} non-degenerate rows but K={K}; try a smaller K")
    margins = np.full(n, np.inf)
    margins_u = one_class_margin(X[usable])
    if margins_u is None:
        margins[usable] = 0.0
        weighted = X[usable] * row_norms[usable, None]
        return CornerSet(indices=np.sort(usable[spa_corners(weighted, K).indices]),
                         margins=margins, candidates=usable,
                         cluster_assignments=np.zeros(usable.size, dtype=int))
    margins[usable] = margins_u

    mmin = margins_u.min()
    floor = min(usable.size, max(2 * K, int(np.ceil(FLOOR_FRAC * usable.size))))
    delta = DELTA_MIN
    cand = usable[margins_u <= (1.0 + delta) * mmin]
    while cand.size < floor and delta < DELTA_CAP:
        delta = min(max(delta * 1.5, 1e-4), DELTA_CAP)
        cand = usable[margins_u <= (1.0 + delta) * mmin]
    if cand.size < floor:
        # the narrowest band's rows rank as equal, in row order: the support
        # rows all have margin 1, computed only to within the solver's
        # rounding, and k-means++ seeds by position
        key = np.maximum(margins_u, (1.0 + DELTA_MIN) * mmin)
        cand = usable[np.argsort(key, kind="stable")[:floor]]

    labels, centers = spherical_kmeans(X[cand], K, seed)
    if np.unique(labels).size < K:
        raise EstimationError(
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
            raise EstimationError(
                f"rows are rank deficient: only {len(picked)} independent directions found "
                f"before {K} picks")
        j = int(np.argmax(norms))
        picked.append(j)
        u = R[j] / norms[j]
        R = R - np.outer(R @ u, u)
    return CornerSet(indices=np.array(picked, dtype=int), margins=norms0)
