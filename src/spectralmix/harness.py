"""Benchmark harness: parameter sweeps with replicate averaging, the four
canonical small demonstration set-ups, and the error-rate scaling check.

Replicate seeds derive from (master_seed, grid index, replicate index)
through named seed sequences, so a sweep is reproducible bit-for-bit and
replicates can run in any order.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import spearmanr

from . import estimators as _estimators
from . import metrics as _metrics
from . import model as _model
from .corners import CornerFindingError

DEFAULT_REPLICATES = 50
SCALING_FLATNESS_FACTOR = 3.0


@dataclass
class ExperimentConfig:
    """Sweep description: model layout, edge distribution, rho grid."""

    n: int
    K: int
    n0: int
    mixed_profiles: list
    p_offdiag: float
    distribution: dict
    rho_grid: list
    theta_rule: str = "uniform_half"
    replicates: int = DEFAULT_REPLICATES
    methods: tuple = ("scd", "dfsp")
    master_seed: int = 0
    keep_self_loops: bool = False

    def __post_init__(self):
        if not self.rho_grid or any(r <= 0 for r in self.rho_grid):
            raise ValueError("rho grid must be nonempty and positive")
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")

    def block_matrix(self):
        P = np.full((self.K, self.K), self.p_offdiag, dtype=float)
        np.fill_diagonal(P, 1.0)
        return _model.check_block_matrix(P)

    def membership(self):
        profiles = [(np.asarray(p, dtype=float), int(c)) for p, c in self.mixed_profiles]
        return _model.make_synthetic_membership(self.n, self.K, self.n0, profiles)

    def edge_distribution(self):
        return _model.EdgeDistribution.from_config(self.distribution)

    def to_json(self):
        payload = dict(self.__dict__)
        payload["mixed_profiles"] = [[list(map(float, p)), int(c)] for p, c in self.mixed_profiles]
        payload["methods"] = list(self.methods)
        return json.dumps(payload, indent=2)

    @classmethod
    def from_json(cls, text):
        raw = json.loads(text)
        raw["mixed_profiles"] = [(tuple(p), int(c)) for p, c in raw["mixed_profiles"]]
        raw["methods"] = tuple(raw.get("methods", ("scd", "dfsp")))
        return cls(**raw)


@dataclass
class SweepResult:
    config: ExperimentConfig
    grid: list
    # (method, rho) -> {"errors", "replicates", "seconds", "failures", "mean",
    # "std"}; "replicates" holds the replicate index behind each error
    table: dict
    invalid: dict = field(default_factory=dict)  # rho -> reason

    def mean_errors(self, method):
        return np.array([self.table[(method, rho)]["mean"] for rho in self.valid_grid()])

    def valid_grid(self):
        return [rho for rho in self.grid if rho not in self.invalid]

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["method", "rho", "replicate", "error", "seconds"])
            for rho in self.valid_grid():
                for method in self.config.methods:
                    cell = self.table[(method, rho)]
                    for rep, err, sec in zip(cell["replicates"], cell["errors"], cell["seconds"]):
                        writer.writerow([method, rho, rep, f"{err:.10g}", f"{sec:.6g}"])

    def summary(self):
        return {
            "grid": self.grid,
            "invalid": {str(k): v for k, v in self.invalid.items()},
            "methods": {
                method: {
                    str(rho): {
                        "mean": self.table[(method, rho)]["mean"],
                        "std": self.table[(method, rho)]["std"],
                        "failures": self.table[(method, rho)].get("failures", 0),
                    }
                    for rho in self.valid_grid()
                }
                for method in self.config.methods
            },
        }

    def write_summary(self, path):
        with open(path, "w") as fh:
            json.dump(self.summary(), fh, indent=2)


def _support_violation(core_min, core_max, rho, dist):
    """Worst-case expectation range at scale rho against the family support."""
    lo, hi = dist.support
    for mean in (core_min * rho * rho, core_max * rho * rho):
        if not lo <= mean <= hi:
            return f"{dist.kind} means would reach {mean:.4g}, outside [{lo:g}, {hi:g}]"
    return None


def _replicate_seeds(master_seed, tags):
    ss = np.random.SeedSequence([int(master_seed), *[int(t) for t in tags]])
    return [int(s) for s in ss.generate_state(3, dtype=np.uint64)]


def run_sweep(cfg, progress=None):
    """Run every (grid point, replicate, method) cell of a sweep.

    Each replicate draws a fresh theta and adjacency. A fit that raises a
    named estimation or corner error, or a ``LinAlgError``, counts as a
    failed replicate of its method. Grid points whose worst-case
    expectation range violates the distribution support, or where a method
    fails on every replicate, are skipped with a recorded reason instead of
    clamped; ``progress`` is called for valid points only.
    """
    Pi = cfg.membership()
    P = cfg.block_matrix()
    dist = cfg.edge_distribution()
    core = Pi @ P @ Pi.T
    off = ~np.eye(cfg.n, dtype=bool)
    core_min, core_max = float(core[off].min()), float(core[off].max())

    table = {}
    invalid = {}
    for gi, rho in enumerate(cfg.rho_grid):
        reason = _support_violation(core_min, core_max, rho, dist)
        if reason:
            invalid[rho] = reason
            continue
        errors = {m: [] for m in cfg.methods}
        seconds = {m: [] for m in cfg.methods}
        replicates = {m: [] for m in cfg.methods}
        for rep in range(cfg.replicates):
            s_theta, s_adj, s_est = _replicate_seeds(cfg.master_seed, (gi, rep))
            theta = _model.make_theta(cfg.n, rho, cfg.theta_rule, seed=s_theta)
            omega = _model.build_omega(P, Pi, theta)
            A = _model.sample_adjacency(omega, dist, seed=s_adj,
                                        keep_self_loops=cfg.keep_self_loops)
            for method in cfg.methods:
                t0 = time.perf_counter()
                try:
                    result = _estimators.estimate(method, A, cfg.K, seed=s_est)
                except (_estimators.EstimationError, CornerFindingError,
                        np.linalg.LinAlgError):
                    continue
                dt = time.perf_counter() - t0
                report = _metrics.l1_error_rate(result.Pi_hat, Pi)
                errors[method].append(report.l1_rate)
                seconds[method].append(dt)
                replicates[method].append(rep)
        for method in cfg.methods:
            if not errors[method]:
                invalid[rho] = f"{method} failed on all {cfg.replicates} replicates"
                break
            errs = np.array(errors[method])
            table[(method, rho)] = {
                "errors": errors[method],
                "replicates": replicates[method],
                "seconds": seconds[method],
                "failures": cfg.replicates - len(errors[method]),
                "mean": float(errs.mean()),
                "std": float(errs.std()),
            }
        if progress and rho not in invalid:
            progress(rho, {m: table[(m, rho)]["mean"] for m in cfg.methods})
    return SweepResult(config=cfg, grid=list(cfg.rho_grid), table=table, invalid=invalid)


EXPERIMENT_PROFILES = [
    ((0.1, 0.1, 0.8), None),
    ((0.1, 0.8, 0.1), None),
    ((0.8, 0.1, 0.1), None),
    ((1 / 3, 1 / 3, 1 / 3), None),
]


def experiment_config(exp_id, n=400, K=3, n0=40, replicates=DEFAULT_REPLICATES,
                      master_seed=0):
    """The four canonical synthetic sweeps (one per edge-weight family).

    Mixed nodes split evenly across the four canonical profiles; the grid
    and block off-diagonal follow the family (negative for normal/signed,
    positive for bernoulli/poisson).
    """
    if exp_id == 1:
        p, dist = -0.2, {"kind": "normal", "variance": 2.0}
        grid = [round(0.1 * i, 10) for i in range(1, 21)]
    elif exp_id == 2:
        p, dist = 0.2, {"kind": "bernoulli"}
        grid = [round(0.1 * i, 10) for i in range(1, 11)]
    elif exp_id == 3:
        p, dist = 0.2, {"kind": "poisson"}
        grid = [round(0.2 * i, 10) for i in range(1, 11)]
    elif exp_id == 4:
        p, dist = -0.2, {"kind": "signed"}
        grid = [round(0.1 * i, 10) for i in range(1, 11)]
    else:
        raise ValueError("experiment id must be 1, 2, 3 or 4")
    count = (n - K * n0) // len(EXPERIMENT_PROFILES)
    profiles = [(prof, count) for prof, _ in EXPERIMENT_PROFILES]
    used = K * n0 + count * len(profiles)
    if used != n:
        raise ValueError(f"n={n} does not split into {K}*{n0} pure plus 4 equal mixed groups")
    return ExperimentConfig(
        n=n, K=K, n0=n0, mixed_profiles=profiles, p_offdiag=p,
        distribution=dist, rho_grid=grid, replicates=replicates,
        master_seed=master_seed,
    )


SETUP_PARAMS = {
    1: dict(n=16, n0=6, rho=10.0, p_offdiag=-0.2, distribution={"kind": "normal", "variance": 1.0}),
    2: dict(n=30, n0=10, rho=1.0, p_offdiag=0.2, distribution={"kind": "bernoulli"}),
    3: dict(n=24, n0=8, rho=10.0, p_offdiag=0.2, distribution={"kind": "poisson"}),
    4: dict(n=30, n0=12, rho=1.0, p_offdiag=-0.2, distribution={"kind": "signed"}),
}


def setup_model(setup_id, variance_override=None):
    """Ground-truth parameters of demonstration set-up 1..4.

    Two communities, n0 pure nodes each, a (0.7, 0.3) mixed tail, and the
    deterministic ramp theta.
    """
    if setup_id not in SETUP_PARAMS:
        raise ValueError("setup id must be 1, 2, 3 or 4")
    params = SETUP_PARAMS[setup_id]
    n, n0, rho = params["n"], params["n0"], params["rho"]
    dist_cfg = dict(params["distribution"])
    if variance_override is not None and dist_cfg["kind"] == "normal":
        dist_cfg["variance"] = variance_override
    Pi = _model.make_synthetic_membership(n, 2, n0, [((0.7, 0.3), n - 2 * n0)])
    P = np.array([[1.0, params["p_offdiag"]], [params["p_offdiag"], 1.0]])
    theta = _model.make_theta(n, rho, "linear_ramp")
    omega = _model.build_omega(P, Pi, theta)
    dist = _model.EdgeDistribution.from_config(dist_cfg)
    return omega, Pi, dist


def run_setup(setup_id, seed=0, methods=("scd", "dfsp"), variance_override=None,
              keep_self_loops=False):
    """One adjacency draw of a set-up, fitted by each method."""
    omega, Pi, dist = setup_model(setup_id, variance_override)
    s_adj, s_est, _ = _replicate_seeds(seed, (setup_id,))
    A = _model.sample_adjacency(omega, dist, seed=s_adj,
                                keep_self_loops=keep_self_loops)
    reports = {}
    for method in methods:
        result = _estimators.estimate(method, A, 2, seed=s_est)
        reports[method] = _metrics.l1_error_rate(result.Pi_hat, Pi)
    return reports


def run_setup_replicates(setup_id, reps=DEFAULT_REPLICATES, master_seed=0,
                         methods=("scd", "dfsp"), variance_override=None,
                         keep_self_loops=False):
    """Replicate a set-up over fresh draws; returns per-method error arrays."""
    errors = {m: [] for m in methods}
    for rep in range(reps):
        reports = run_setup(setup_id, seed=master_seed + rep, methods=methods,
                            variance_override=variance_override,
                            keep_self_loops=keep_self_loops)
        for m in methods:
            errors[m].append(reports[m].l1_rate)
    return {m: np.array(v) for m, v in errors.items()}


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
    if cfg.distribution["kind"] not in ("bernoulli", "poisson"):
        raise ValueError("scaling check applies to the sparsity-controlled families "
                         "(bernoulli, poisson)")
    sweep = run_sweep(cfg)
    rhos = sweep.valid_grid()
    means = [sweep.table[(method, rho)]["mean"] for rho in rhos]
    norm = [m * math.sqrt(rho * cfg.n) / math.sqrt(math.log(cfg.n))
            for m, rho in zip(means, rhos)]
    spread = max(norm) / min(norm) if min(norm) > 0 else math.inf
    return ScalingReport(rhos=rhos, mean_errors=means, normalized=norm,
                         spread_factor=float(spread),
                         flat=spread <= SCALING_FLATNESS_FACTOR, n=cfg.n)


def spearman_rho_vs_error(sweep, method="scd"):
    """Spearman correlation between the grid value and the mean error."""
    rhos = sweep.valid_grid()
    means = [sweep.table[(method, rho)]["mean"] for rho in rhos]
    corr, _ = spearmanr(rhos, means)
    return float(corr)
