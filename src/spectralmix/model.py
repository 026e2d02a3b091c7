"""Generative model for overlapping weighted networks.

A parameter set (P, Pi, theta) defines an expectation matrix
omega = Theta Pi P Pi' Theta whose entries are the means of the edge
weights. Adjacency matrices are then sampled entrywise from one of four
edge-weight families (normal, bernoulli, poisson, signed).

All randomness flows through counter-based Philox streams so that a
single integer seed reproduces a draw across platforms. Entries are
drawn in fixed upper-triangle row-major order, one block of rows at a
time from the one stream, and written straight into both triangles of
the adjacency matrix. Since a block's draws continue the stream where the
last block's stopped, the block size does not change the draw. Omega and
A are the only n x n arrays a draw makes; every other temporary is a
strip or block of about ``BLOCK_ENTRIES`` entries.
"""

from __future__ import annotations

import bisect
import numbers
from dataclasses import dataclass

import numpy as np

SIMPLEX_TOL = 1e-12
RANK_TOL = 1e-10
# entries per row strip or sampling block: its temporaries are a few MB at
# any n, and an n=400 draw's upper triangle is one block
BLOCK_ENTRIES = 2**17


class InvariantError(ValueError):
    """A model parameter violates one of its structural constraints."""


class SupportError(ValueError):
    """An expectation entry lies outside the support of the edge distribution."""


def check_membership(Pi):
    """Validate an n x K membership matrix (rows on the simplex, full rank).

    Every community must own at least one pure row (a standard basis
    vector), which is what identifiability needs for a ground-truth matrix.
    """
    Pi = np.asarray(Pi, dtype=float)
    if Pi.ndim != 2:
        raise InvariantError("membership matrix must be 2-d")
    n, K = Pi.shape
    if np.any(Pi < -SIMPLEX_TOL):
        i, k = np.unravel_index(np.argmin(Pi), Pi.shape)
        raise InvariantError(f"membership entry ({i},{k})={Pi[i, k]:.3g} is negative")
    rowsums = Pi.sum(axis=1)
    bad = np.argmax(np.abs(rowsums - 1.0))
    if abs(rowsums[bad] - 1.0) > max(SIMPLEX_TOL, 64 * np.finfo(float).eps * K):
        raise InvariantError(f"membership row {bad} sums to {rowsums[bad]!r}, not 1")
    sv = np.linalg.svd(Pi, compute_uv=False)
    if sv[-1] <= RANK_TOL * sv[0]:
        raise InvariantError(f"membership matrix is rank deficient (sigma_K/sigma_1 = {sv[-1] / sv[0]:.3g})")
    for k in range(K):
        target = np.zeros(K)
        target[k] = 1.0
        if not np.any(np.abs(Pi - target).sum(axis=1) <= K * SIMPLEX_TOL):
            raise InvariantError(f"community {k + 1} has no pure row")
    return Pi


def check_block_matrix(P):
    """Validate a K x K symmetric full-rank block matrix with unit diagonal."""
    P = np.asarray(P, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise InvariantError("block matrix must be square")
    if np.max(np.abs(P - P.T)) > SIMPLEX_TOL:
        raise InvariantError("block matrix is not symmetric")
    if np.max(np.abs(np.diag(P) - 1.0)) > SIMPLEX_TOL:
        raise InvariantError("block matrix diagonal entries must all equal 1")
    sv = np.linalg.svd(P, compute_uv=False)
    if sv[-1] <= RANK_TOL * sv[0]:
        raise InvariantError("block matrix is rank deficient")
    return P


def check_theta(theta):
    """Validate a positive per-node scale vector."""
    theta = np.asarray(theta, dtype=float).ravel()
    if theta.size == 0:
        raise InvariantError("theta is empty")
    if np.any(theta <= 0) or not np.all(np.isfinite(theta)):
        i = int(np.argmin(theta))
        raise InvariantError(f"theta({i}) = {theta[i]!r}; node scales must be positive and finite")
    return theta


def _row_strips(n):
    """Row ranges ``(a, b)`` covering an n-row square matrix in order, each
    strip of about ``BLOCK_ENTRIES`` entries and at least one row."""
    step = max(1, BLOCK_ENTRIES // max(n, 1))
    return [(a, min(a + step, n)) for a in range(0, n, step)]


def build_omega(P, Pi, theta):
    """Expectation matrix Theta Pi P Pi' Theta of the edge weights.

    Symmetric with rank exactly K whenever the parameter invariants hold.
    The node scales multiply ``Pi P Pi'`` in place, and the symmetric part
    (M + M') / 2 replaces it in place, one strip of rows at a time: each
    strip's entries right of the diagonal are summed with their mirror
    images, halved and written to both triangles, so the result is the one
    n x n array a call makes. The sums are the ones ``M + M'`` would take,
    so the bits are too.
    """
    P = check_block_matrix(P)
    Pi = check_membership(Pi)
    theta = check_theta(theta)
    n, K = Pi.shape
    if P.shape[0] != K:
        raise InvariantError(f"block matrix is {P.shape[0]}x{P.shape[0]} but membership has {K} columns")
    if theta.size != n:
        raise InvariantError(f"theta has length {theta.size}, expected {n}")
    omega = Pi @ P @ Pi.T
    omega *= theta[:, None]
    omega *= theta
    # a strip reads only rows and columns from a on, which earlier strips left as they were
    for a, b in _row_strips(n):
        strip = omega[a:b, a:] + omega[a:, a:b].T
        strip *= 0.5
        omega[a:b, a:] = strip
        omega[a:, a:b] = strip.T
    return omega


@dataclass(frozen=True)
class EdgeDistribution:
    """Edge-weight family: one of normal/bernoulli/poisson/signed.

    ``normal`` takes a variance parameter; the other three are
    parameter-free. ``SUPPORT`` holds each family's closed range of
    admissible means; ``validate`` enforces it on the expectation entries
    (hard errors, never clamping), and sweeps screen grid points with it.
    """

    kind: str
    variance: float | None = None

    SUPPORT = {"normal": (-np.inf, np.inf), "bernoulli": (0.0, 1.0),
               "poisson": (0.0, np.inf), "signed": (-1.0, 1.0)}
    KINDS = tuple(SUPPORT)

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown distribution {self.kind!r}; expected one of {self.KINDS}")
        if self.kind == "normal":
            if not (isinstance(self.variance, numbers.Real) and 0 <= self.variance < np.inf):
                raise ValueError("normal edge distribution needs a finite nonnegative variance")
        elif self.variance is not None:
            raise ValueError(f"{self.kind} edge distribution takes no variance parameter")

    @property
    def support(self):
        return self.SUPPORT[self.kind]

    def _outside(self, means):
        """Where ``means`` are not finite values in this family's support."""
        lo, hi = self.support
        return ~(np.isfinite(means) & (lo <= means) & (means <= hi))

    def _support_error(self, i, j, mean, count):
        lo, hi = self.support
        return SupportError(
            f"{self.kind} mean at ({i},{j}) is {mean:.6g}, not a finite value "
            f"in [{lo:g}, {hi:g}] ({count} offending entries)")

    def validate(self, omega):
        """Check every off-diagonal mean is finite and in this family's support."""
        omega = np.asarray(omega, dtype=float)
        lo, hi = self.support
        least, most = omega.min(initial=np.inf), omega.max(initial=-np.inf)
        if np.isfinite(least) and np.isfinite(most) and lo <= least and most <= hi:
            return  # every entry, the diagonal too, is in the support
        count, first = 0, None
        for a, b in _row_strips(omega.shape[0]):
            bad = self._outside(omega[a:b])
            bad[np.arange(b - a), np.arange(a, b)] = False
            if first is None and bad.any():
                r, j = np.unravel_index(np.argmax(bad), bad.shape)
                first = (a + int(r), int(j))
            count += int(np.count_nonzero(bad))
        if count:
            i, j = first
            raise self._support_error(i, j, omega[i, j], count)

    def validate_diagonal(self, omega):
        """Check every diagonal mean, which a draw with self loops samples,
        is finite and in this family's support."""
        bad = np.flatnonzero(self._outside(np.diag(omega)))
        if bad.size:
            i = int(bad[0])
            raise self._support_error(i, i, omega[i, i], bad.size)

    def sample(self, means, rng):
        if self.kind == "normal":
            # the operations Generator.normal performs, without its per-entry broadcast
            draws = rng.standard_normal(np.shape(means))
            draws *= np.sqrt(self.variance)
            draws += means
            return draws
        if self.kind == "bernoulli":
            return rng.binomial(1, means).astype(float)
        if self.kind == "poisson":
            return rng.poisson(means).astype(float)
        return 2.0 * rng.binomial(1, (1.0 + means) / 2.0) - 1.0


def _stream(seed):
    """The Philox generator of an integer seed, taken modulo 2**64: every
    random stream in the package comes from here."""
    key = np.uint64(int(seed) & 0xFFFFFFFFFFFFFFFF)
    return np.random.Generator(np.random.Philox(key=key))


def _upper_blocks(n):
    """Row ranges ``(a, b)`` that split the strict upper triangle of an n x n
    matrix, in row-major order, into blocks of at most ``BLOCK_ENTRIES``
    entries, or of one row where a row alone holds more."""
    def before(i):  # upper-triangle entries in the rows above row i
        return i * (n - 1) - i * (i - 1) // 2

    blocks, a = [], 0
    while a < n - 1:
        b = max(a + 1, bisect.bisect_right(range(n), before(a) + BLOCK_ENTRIES, key=before) - 1)
        blocks.append((a, b))
        a = b
    return blocks


def sample_adjacency(omega, dist, seed, keep_self_loops=False):
    """Draw a symmetric adjacency matrix with entrywise means ``omega``.

    Upper-triangle entries are independent draws from ``dist``; the lower
    triangle mirrors them. The diagonal is zero unless ``keep_self_loops``,
    in which case its means are checked too and it is sampled from the same
    family after the upper triangle. The upper triangle is drawn in
    row-major order, one block of rows at a time (``_upper_blocks``): each
    block gathers its means through a mask of its own rows, draws them from
    the one stream, and writes them to both triangles. So ``A`` is the one
    n x n array a call makes, and the draw is the one a single call over
    the whole triangle would give.
    """
    omega = np.asarray(omega, dtype=float)
    n = omega.shape[0]
    if omega.shape != (n, n):
        raise ValueError("omega must be square")
    dist.validate(omega)
    if keep_self_loops:
        dist.validate_diagonal(omega)
    rng = _stream(seed)
    A = np.zeros((n, n))
    for a, b in _upper_blocks(n):
        # the block's rows from column a on; the transposed view of A's
        # columns a:b takes the mirror images in the same order
        upper = np.arange(a, n) > np.arange(a, b)[:, None]
        vals = dist.sample(omega[a:b, a:][upper], rng)
        A[a:b, a:][upper] = vals
        A[a:, a:b].T[upper] = vals
        del upper, vals  # so the next block's draws do not share the peak with these
    if keep_self_loops:
        A[np.diag_indices(n)] = dist.sample(np.diag(omega), rng)
    return A


def make_synthetic_membership(n, K, n0, mixed_profiles=()):
    """Block layout: n0 pure rows per community, then mixed profiles in order.

    ``mixed_profiles`` is a sequence of (profile, count) pairs; profile k
    occupies the next ``count`` rows. Counts are nonnegative, and plus
    K*n0 must equal n.
    """
    for profile, count in mixed_profiles:
        if count < 0:
            raise InvariantError(f"mixed profile {tuple(np.ravel(profile).tolist())} "
                                 f"has count {count}; counts must be >= 0")
    total = K * n0 + sum(c for _, c in mixed_profiles)
    if total != n:
        raise InvariantError(f"K*n0 + mixed counts = {total}, expected n = {n}")
    Pi = np.zeros((n, K))
    for k in range(K):
        Pi[k * n0:(k + 1) * n0, k] = 1.0
    r = K * n0
    for profile, count in mixed_profiles:
        profile = np.asarray(profile, dtype=float)
        if profile.size != K or np.any(profile < 0) or abs(profile.sum() - 1.0) > SIMPLEX_TOL:
            raise InvariantError(f"profile {profile} is not on the {K}-simplex")
        Pi[r:r + count] = profile
        r += count
    return check_membership(Pi)


THETA_RULES = ("uniform_half", "linear_ramp")


def make_theta(n, rho, rule="uniform_half", seed=0):
    """Per-node scales: either rho*(u/2+0.5) with u uniform, or the
    deterministic ramp 0.9*rho + 0.1*i*rho/n for i = 1..n."""
    if n < 1:
        raise InvariantError("n must be >= 1")
    if rho <= 0:
        raise InvariantError("rho must be positive")
    if rule not in THETA_RULES:
        raise ValueError(f"unknown theta rule {rule!r}")
    if rule == "uniform_half":
        u = _stream(seed).random(n)
        return rho * (u / 2.0 + 0.5)
    i = np.arange(1, n + 1, dtype=float)
    return 0.9 * rho + 0.1 * i * rho / n
