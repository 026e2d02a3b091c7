"""Generative model for overlapping weighted networks.

A parameter set (P, Pi, theta) defines an expectation matrix
omega = Theta Pi P Pi' Theta whose entries are the means of the edge
weights. Adjacency matrices are then sampled entrywise from one of four
edge-weight families (normal, bernoulli, poisson, signed) or any
user-supplied sampler with the right mean.

All randomness flows through counter-based Philox streams so that a
single integer seed reproduces a draw across platforms. Entries are
drawn in fixed upper-triangle row-major order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SIMPLEX_TOL = 1e-12
RANK_TOL = 1e-10


class InvariantError(ValueError):
    """A model parameter violates one of its structural constraints."""


class SupportError(ValueError):
    """An expectation entry lies outside the support of the edge distribution."""

    def __init__(self, message, indices=None, values=None):
        super().__init__(message)
        self.indices = indices
        self.values = values


def check_membership(Pi, tol=SIMPLEX_TOL):
    """Validate an n x K membership matrix (rows on the simplex, full rank).

    Every community must own at least one pure row (a standard basis
    vector), which is what identifiability needs for a ground-truth matrix.
    """
    Pi = np.asarray(Pi, dtype=float)
    if Pi.ndim != 2:
        raise InvariantError("membership matrix must be 2-d")
    n, K = Pi.shape
    if np.any(Pi < -tol):
        i, k = np.unravel_index(np.argmin(Pi), Pi.shape)
        raise InvariantError(f"membership entry ({i},{k})={Pi[i, k]:.3g} is negative")
    rowsums = Pi.sum(axis=1)
    bad = np.argmax(np.abs(rowsums - 1.0))
    if abs(rowsums[bad] - 1.0) > max(tol, 64 * np.finfo(float).eps * K):
        raise InvariantError(f"membership row {bad} sums to {rowsums[bad]!r}, not 1")
    sv = np.linalg.svd(Pi, compute_uv=False)
    if sv[-1] <= RANK_TOL * sv[0]:
        raise InvariantError(f"membership matrix is rank deficient (sigma_K/sigma_1 = {sv[-1] / sv[0]:.3g})")
    for k in range(K):
        target = np.zeros(K)
        target[k] = 1.0
        if not np.any(np.abs(Pi - target).sum(axis=1) <= K * tol):
            raise InvariantError(f"community {k + 1} has no pure row")
    return Pi


def check_block_matrix(P, tol=SIMPLEX_TOL):
    """Validate a K x K symmetric full-rank block matrix with unit diagonal."""
    P = np.asarray(P, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise InvariantError("block matrix must be square")
    if np.max(np.abs(P - P.T)) > tol:
        raise InvariantError("block matrix is not symmetric")
    if np.max(np.abs(np.diag(P) - 1.0)) > tol:
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
    """
    P = check_block_matrix(P)
    Pi = check_membership(Pi)
    theta = check_theta(theta)
    n, K = Pi.shape
    if P.shape[0] != K:
        raise InvariantError(f"block matrix is {P.shape[0]}x{P.shape[0]} but membership has {K} columns")
    if theta.size != n:
        raise InvariantError(f"theta has length {theta.size}, expected {n}")
    core = Pi @ P @ Pi.T
    omega = theta[:, None] * core * theta[None, :]
    return 0.5 * (omega + omega.T)


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
            if self.variance is None or self.variance < 0:
                raise ValueError("normal edge distribution needs a nonnegative variance")
        elif self.variance is not None:
            raise ValueError(f"{self.kind} edge distribution takes no variance parameter")

    @property
    def support(self):
        return self.SUPPORT[self.kind]

    def validate(self, omega):
        """Check every off-diagonal mean is finite and in this family's support."""
        omega = np.asarray(omega, dtype=float)
        off = ~np.eye(omega.shape[0], dtype=bool)
        lo, hi = self.support
        bad = off & (~np.isfinite(omega) | (omega < lo) | (omega > hi))
        if np.any(bad):
            idx = np.argwhere(bad)
            i, j = idx[0]
            raise SupportError(
                f"{self.kind} mean at ({i},{j}) is {omega[i, j]:.6g}, not a finite value "
                f"in [{lo:g}, {hi:g}] ({len(idx)} offending entries)",
                indices=idx,
                values=omega[bad],
            )

    def sample(self, means, rng):
        if self.kind == "normal":
            return rng.normal(means, np.sqrt(self.variance))
        if self.kind == "bernoulli":
            return rng.binomial(1, means).astype(float)
        if self.kind == "poisson":
            return rng.poisson(means).astype(float)
        return 2.0 * rng.binomial(1, (1.0 + means) / 2.0) - 1.0

    @classmethod
    def from_config(cls, cfg):
        return cls(kind=cfg["kind"], variance=cfg.get("variance"))


def _stream(seed):
    key = np.uint64(int(seed) & 0xFFFFFFFFFFFFFFFF)
    return np.random.Generator(np.random.Philox(key=key))


def sample_adjacency(omega, dist, seed, keep_self_loops=False):
    """Draw a symmetric adjacency matrix with entrywise means ``omega``.

    Upper-triangle entries are independent draws from ``dist``; the lower
    triangle mirrors them. The diagonal is zero unless ``keep_self_loops``,
    in which case it is sampled from the same family.
    """
    omega = np.asarray(omega, dtype=float)
    n = omega.shape[0]
    if omega.shape != (n, n):
        raise ValueError("omega must be square")
    dist.validate(omega)
    rng = _stream(seed)
    iu = np.triu_indices(n, 1)
    vals = dist.sample(omega[iu], rng)
    A = np.zeros((n, n))
    A[iu] = vals
    A = A + A.T
    if keep_self_loops:
        A[np.diag_indices(n)] = dist.sample(np.diag(omega), rng)
    return A


def make_synthetic_membership(n, K, n0, mixed_profiles=()):
    """Block layout: n0 pure rows per community, then mixed profiles in order.

    ``mixed_profiles`` is a sequence of (profile, count) pairs; profile k
    occupies the next ``count`` rows. Counts plus K*n0 must equal n.
    """
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


def make_theta(n, rho, rule="uniform_half", seed=0):
    """Per-node scales: either rho*(u/2+0.5) with u uniform, or the
    deterministic ramp 0.9*rho + 0.1*i*rho/n for i = 1..n."""
    if n < 1:
        raise InvariantError("n must be >= 1")
    if rho <= 0:
        raise InvariantError("rho must be positive")
    if rule == "uniform_half":
        u = _stream(seed).random(n)
        return rho * (u / 2.0 + 0.5)
    if rule == "linear_ramp":
        i = np.arange(1, n + 1, dtype=float)
        return 0.9 * rho + 0.1 * i * rho / n
    raise ValueError(f"unknown theta rule {rule!r}")
