import importlib.util
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import spearmanr

from spectralmix import harness

_SPEC = importlib.util.spec_from_file_location(
    "make_datasets", Path(__file__).resolve().parent.parent / "scripts" / "make_datasets.py")
make_datasets = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(make_datasets)


@pytest.fixture(scope="session")
def data_dir(tmp_path_factory):
    """Edge files for the bundled real networks, written once per session
    by the same writers as ``scripts/make_datasets.py``."""
    out = tmp_path_factory.mktemp("networks")
    make_datasets.write_karate(out)
    make_datasets.write_lesmis(out)
    return out


def write_blogs(path, seed=5):
    """A small directed GML network: two planted communities of 30 nodes
    with 0/1 values, some arcs in both directions, a self loop and an
    isolated pair, and nested ``graphics`` blocks."""
    rng = np.random.default_rng(seed)
    n = 64
    side = np.r_[np.zeros(30, int), np.ones(30, int), rng.integers(0, 2, 4)]
    p = np.where(side[:60, None] == side[None, :60], 0.3, 0.04)
    arcs = [(u, v) for u, v in zip(*np.nonzero(np.triu(rng.random((60, 60)) < p, 1)))]
    arcs = [(v, u) if flip else (u, v) for (u, v), flip in zip(arcs, rng.random(len(arcs)) < 0.5)]
    arcs += [(v, u) for u, v in arcs[::7]] + [(3, 3), (60, 61)]
    path.write_text("graph [\n  directed 1\n" + "".join(
        f'  node [ id {k + 1} label "blog {k + 1}" value {side[k]} '
        f"graphics [ x {k} y {k % 5} ] ]\n" for k in range(n)) + "".join(
        f"  edge [ source {u + 1} target {v + 1} ]\n" for u, v in arcs) + "]\n",
        encoding="utf-8")


def polblogs_path():
    """User-provided political-weblogs file; tests skip when absent."""
    candidates = [
        os.environ.get("SPECTRALMIX_POLBLOGS"),
        "data/polblogs.gml",
        str(Path(__file__).resolve().parent.parent / "data" / "polblogs.gml"),
    ]
    for c in candidates:
        if c and Path(c).exists():
            return Path(c)
    return None


def random_ground_truth(rng, n, K, pure_frac_min=0.4, p_low=-0.3, p_high=0.5):
    """A random valid parameter set: pure blocks plus Dirichlet mixed rows,
    a well-conditioned unit-diagonal block matrix, positive node scales."""
    n_pure = max(K, int(np.ceil(pure_frac_min * n)))
    n0 = max(1, n_pure // K)
    n_mixed = n - K * n0
    Pi = np.zeros((n, K))
    for k in range(K):
        Pi[k * n0:(k + 1) * n0, k] = 1.0
    if n_mixed:
        Pi[K * n0:] = rng.dirichlet(np.ones(K), size=n_mixed)
    while True:
        off = rng.uniform(p_low, p_high, size=(K, K))
        off = (off + off.T) / 2
        P = np.eye(K) + off - np.diag(np.diag(off))
        sv = np.linalg.svd(P, compute_uv=False)
        if sv[-1] > 0.1:
            break
    theta = rng.uniform(0.5, 1.5, size=n)
    return P, Pi, theta


def sweep_draw(cfg, rho, rep):
    """The adjacency and estimator seed ``harness.run_sweep`` uses for
    replicate ``rep`` at grid point ``rho``."""
    return harness.draw_replicate(cfg, cfg.rho_grid.index(rho), rep, cfg.block_matrix(),
                                  cfg.membership())


def spearman_rho_vs_error(sweep, method="scd"):
    """Spearman correlation between the grid value and the mean error."""
    rhos = sweep.valid_grid()
    means = [sweep.table[(method, rho)]["mean"] for rho in rhos]
    corr, _ = spearmanr(rhos, means)
    return float(corr)


SCALING_FLATNESS_FACTOR = 3.0


@dataclass
class ScalingReport:
    rhos: list
    mean_errors: list
    normalized: list
    spread_factor: float
    flat: bool
    n: int


def scaling_check(cfg, method="scd"):
    """Error-rate scaling against the sqrt(log n / (rho n)) reference.

    Runs the sweep, multiplies each mean error by sqrt(rho n)/sqrt(log n),
    and flags failure when the normalized values spread by more than a
    factor of SCALING_FLATNESS_FACTOR across the valid grid.
    """
    if cfg.distribution.kind not in ("bernoulli", "poisson"):
        raise ValueError("scaling check applies to the sparsity-controlled families "
                         "(bernoulli, poisson)")
    sweep = harness.run_sweep(cfg)
    rhos = sweep.valid_grid()
    means = [sweep.table[(method, rho)]["mean"] for rho in rhos]
    norm = [m * math.sqrt(rho * cfg.n) / math.sqrt(math.log(cfg.n))
            for m, rho in zip(means, rhos)]
    spread = max(norm) / min(norm) if min(norm) > 0 else math.inf
    return ScalingReport(rhos=rhos, mean_errors=means, normalized=norm,
                         spread_factor=float(spread),
                         flat=spread <= SCALING_FLATNESS_FACTOR, n=cfg.n)
