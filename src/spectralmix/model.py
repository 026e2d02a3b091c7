"""Generative model for overlapping weighted networks.

A parameter set (P, Pi, theta) defines an expectation matrix
omega = Theta Pi P Pi' Theta whose entries are the means of the edge
weights. Adjacency matrices are then sampled entrywise from one of four
edge-weight families (normal, bernoulli, poisson, signed) or any
user-supplied sampler with the right mean.

All randomness flows through counter-based Philox streams so that a
single integer seed reproduces a draw across platforms. Entries are
drawn in fixed upper-triangle row-major order, in one vectorised call per
draw, and written straight into both triangles of the adjacency matrix.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

SIMPLEX_TOL = 1e-12
RANK_TOL = 1e-10


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


def build_omega(P, Pi, theta):
    """Expectation matrix Theta Pi P Pi' Theta of the edge weights.

    Symmetric with rank exactly K whenever the parameter invariants hold.
    The node scales multiply ``Pi P Pi'`` in place, and the symmetric part
    takes one more n x n array.
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
    sym = omega + omega.T
    sym *= 0.5
    return sym


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

    def validate(self, omega):
        """Check every off-diagonal mean is finite and in this family's support."""
        omega = np.asarray(omega, dtype=float)
        lo, hi = self.support
        least, most = omega.min(initial=np.inf), omega.max(initial=-np.inf)
        if np.isfinite(least) and np.isfinite(most) and lo <= least and most <= hi:
            return  # every entry, the diagonal too, is in the support
        off = ~np.eye(omega.shape[0], dtype=bool)
        bad = off & (~np.isfinite(omega) | (omega < lo) | (omega > hi))
        if np.any(bad):
            idx = np.argwhere(bad)
            i, j = idx[0]
            raise SupportError(
                f"{self.kind} mean at ({i},{j}) is {omega[i, j]:.6g}, not a finite value "
                f"in [{lo:g}, {hi:g}] ({len(idx)} offending entries)")

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


def sample_adjacency(omega, dist, seed, keep_self_loops=False):
    """Draw a symmetric adjacency matrix with entrywise means ``omega``.

    Upper-triangle entries are independent draws from ``dist``; the lower
    triangle mirrors them. The diagonal is zero unless ``keep_self_loops``,
    in which case it is sampled from the same family. The upper-triangle
    means are gathered once through an n x n boolean mask and the draws
    are written to both triangles, so ``A`` is the one n x n float array
    a call makes.
    """
    omega = np.asarray(omega, dtype=float)
    n = omega.shape[0]
    if omega.shape != (n, n):
        raise ValueError("omega must be square")
    dist.validate(omega)
    rng = _stream(seed)
    # a boolean mask selects in row-major order, as triu_indices would, at an
    # eighth of the index arrays' memory; the transposed view mirrors the draws
    upper = ~np.tri(n, dtype=bool)
    vals = dist.sample(omega[upper], rng)
    A = np.zeros((n, n))
    A[upper] = vals
    A.T[upper] = vals
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
