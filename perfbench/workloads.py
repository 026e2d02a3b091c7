"""The benchmark workloads: inputs made from the seed, one operation, checks.

Each workload is a closed loop in one process: operation ``i + 1`` starts
when operation ``i`` returns. The program is reached only through its
public entry points, ``harness.run_sweep`` (what ``spectralmix simulate``
runs) and ``cli.main(["fit", ...])`` (``spectralmix fit``).
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.sparse.csgraph import connected_components

from spectralmix import cli, estimators, harness, metrics, model

from spans import CheckFailed

# L1 metrics are means over the first L1_OPS operations of a run, so that
# they are fixed by the seed and do not depend on how many operations fit
# in the run. An untraced run completes at least this many operations, which
# also sets the least work its timings average over: one fit_n4000
# operation's eigsh time alone varies by 10-15% from call to call.
L1_OPS = {"sweep_pos": 4, "sweep_neg": 3, "fit_n4000": 1, "file_gml": 1}
IDEAL_TOL = 1e-8


def op_seed(seed, i):
    """The master seed of operation ``i``: distinct per operation and per run."""
    return int(np.random.SeedSequence([int(seed), int(i)]).generate_state(1)[0])


@dataclass
class OpOutcome:
    fits: int            # estimator fits attempted
    failed: int          # fits that produced no error value
    l1: dict             # method -> list of L1 errors reported by the program
    fingerprint: str     # exact text of the outputs, for the traced-run comparison


class SweepWorkload:
    """``run_sweep`` over canonical experiments, one replicate per grid point."""

    def __init__(self, name, seed, experiments, n, n0, rho_grid=None, ideal_check=True):
        self.name, self.seed = name, seed
        self.experiments, self.n, self.n0 = experiments, n, n0
        self.rho_grid = rho_grid
        self.ideal_check = ideal_check

    def config(self, exp_id, master_seed, n=None, n0=None):
        cfg = harness.experiment_config(exp_id, n=n or self.n, n0=n0 or self.n0,
                                        replicates=1, master_seed=master_seed)
        if self.rho_grid is not None:
            cfg.rho_grid = list(self.rho_grid)
        return cfg

    def setup(self, workdir):
        if not self.ideal_check:
            return
        cfg = self.config(self.experiments[0], self.seed)
        Pi = cfg.membership()
        theta = model.make_theta(cfg.n, 1.0, cfg.theta_rule, seed=self.seed)
        omega = model.build_omega(cfg.block_matrix(), Pi, theta)
        err = metrics.l1_error_rate(estimators.ideal_scd(omega, cfg.K).Pi_hat, Pi).l1_rate
        if not err <= IDEAL_TOL:
            raise CheckFailed("ideal_recovery",
                              f"ideal_scd L1 error {err:.3g} > {IDEAL_TOL:g} at n={cfg.n}")

    def warm_up(self):
        cfg = self.config(self.experiments[0], self.seed, n=80, n0=8)
        cfg.rho_grid = cfg.rho_grid[-1:]
        harness.run_sweep(cfg)

    def run(self, i):
        return [harness.run_sweep(self.config(exp_id, op_seed(self.seed, i)))
                for exp_id in self.experiments]

    def outcome(self, sweeps):
        fits = done = 0
        l1 = {"scd": [], "dfsp": []}
        tables = []
        for sweep in sweeps:
            cfg = sweep.config
            fits += len(cfg.rho_grid) * cfg.replicates * len(cfg.methods)
            for rho in sweep.valid_grid():
                for method in cfg.methods:
                    cell = sweep.table[(method, rho)]
                    done += len(cell["errors"])
                    l1[method].append(cell["mean"])
            tables.append({
                "grid": sweep.grid,
                "invalid": {str(k): v for k, v in sweep.invalid.items()},
                "cells": {f"{m}@{rho!r}": {k: v for k, v in cell.items() if k != "seconds"}
                          for (m, rho), cell in sweep.table.items()},
            })
        return OpOutcome(fits=fits, failed=fits - done, l1=l1,
                         fingerprint=json.dumps(tables, sort_keys=True))


class FileWorkload:
    """One ``spectralmix fit`` of a polblogs-shaped GML file, in process."""

    def __init__(self, name, seed, core, extras, edges):
        self.name, self.seed = name, seed
        self.core, self.extras, self.edges = core, extras, edges

    def setup(self, workdir):
        self.workdir = Path(workdir)
        self.path = self.workdir / "network.gml"
        self.component = write_polblogs_like(self.path, self.seed, self.core,
                                             self.extras, self.edges)

    def argv(self, out):
        return ["fit", "--file", str(self.path), "--k", "2", "--format", "gml_like",
                "--symmetrize", "or", "--largest-component", "--unweighted",
                "--out", str(out)]

    def warm_up(self):
        self.run(-1)

    def run(self, i):
        out = self.workdir / f"out{i % 2}"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(self.argv(out))
        return code, out

    def outcome(self, raw):
        code, out = raw
        summary_text = (out / "summary.json").read_text()
        csv_text = (out / "memberships.csv").read_text()
        summary = json.loads(summary_text)
        rows = csv_text.count("\n") - 1
        if code != 0 or summary["n"] != self.component or rows != self.component:
            raise CheckFailed(
                "fit_output",
                f"exit {code}, summary n={summary['n']}, {rows} membership rows; "
                f"the planted component has {self.component} nodes")
        return OpOutcome(fits=1, failed=0, l1={"scd": [summary["label_l1_rate"]]},
                         fingerprint=summary_text + csv_text)


def write_polblogs_like(path, seed, core, extras, edges):
    """Write a directed, unweighted GML file shaped like the political-blogs
    network; returns the size of its largest connected component.

    ``core`` nodes carry two planted communities (value 0/1) with
    heavy-tailed degrees; edges are drawn by the package's bernoulli
    sampler with K=2 and scaled to about ``edges`` undirected edges. About
    14% of edges appear in both directions, three self loops are added,
    and ``extras`` further declared nodes are isolated or in pairs.
    """
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 20001]))
    n1 = int(round(0.48 * core))
    Pi = np.zeros((core, 2))
    Pi[:n1, 0] = 1.0
    Pi[n1:, 1] = 1.0
    P = np.array([[1.0, 0.1], [0.1, 1.0]])
    shape = np.exp(0.6 * rng.standard_normal(core))
    core_expect = Pi @ P @ Pi.T
    np.fill_diagonal(core_expect, 0.0)

    def theta_at(c):
        return np.minimum(c * shape, 0.95)

    lo, hi = 1e-6, 10.0
    for _ in range(60):
        c = 0.5 * (lo + hi)
        t = theta_at(c)
        if 0.5 * t @ core_expect @ t < edges:
            lo = c
        else:
            hi = c
    omega = model.build_omega(P, Pi, theta_at(lo))
    A = model.sample_adjacency(omega, model.EdgeDistribution("bernoulli"),
                               seed=int(rng.integers(2**63)))
    _, comp = connected_components(A, directed=False)
    component = int(np.bincount(comp).max())

    n = core + extras
    community = np.concatenate([Pi[:, 1].astype(int), rng.integers(0, 2, extras)])
    pairs = [(core + 2 * k, core + 2 * k + 1) for k in range(extras // 8)]
    iu, ju = np.nonzero(np.triu(A, 1))
    undirected = list(zip(iu.tolist(), ju.tolist())) + pairs
    arcs = []
    for (u, v), flip, both in zip(undirected, rng.random(len(undirected)) < 0.5,
                                  rng.random(len(undirected)) < 0.14):
        arcs.append((v, u) if flip else (u, v))
        if both:
            arcs.append((u, v) if flip else (v, u))
    arcs += [(int(u), int(u)) for u in rng.choice(core, 3, replace=False)]
    node_id = rng.permutation(n) + 1  # file ids in shuffled order
    sources = ("Blogarama", "LeftyDirectory", "BlogCatalog", "eTalkingHead")

    lines = ['Creator "spectralmix benchmark"', "graph", "[", "  directed 1"]
    for v in np.argsort(node_id):
        lines += ["  node", "  [", f"    id {node_id[v]}",
                  f'    label "blog{node_id[v]:05d}.example.org"',
                  f"    value {community[v]}",
                  f'    source "{sources[v % 4]},{sources[(v + 1) % 4]}"', "  ]"]
    for u, v in sorted(arcs, key=lambda a: (node_id[a[0]], node_id[a[1]])):
        lines += ["  edge", "  [", f"    source {node_id[u]}", f"    target {node_id[v]}", "  ]"]
    lines.append("]")
    Path(path).write_text("\n".join(lines) + "\n")
    return component


def make(name, seed, size="full"):
    """The workload called ``name``; ``size="tiny"`` shrinks it for tests."""
    tiny = size == "tiny"
    if name == "sweep_pos":
        return SweepWorkload(name, seed, (2, 3), *((80, 8) if tiny else (400, 40)))
    if name == "sweep_neg":
        return SweepWorkload(name, seed, (1, 4), *((80, 8) if tiny else (400, 40)))
    if name == "fit_n4000":
        return SweepWorkload(name, seed, (2,), *((400, 40) if tiny else (4000, 400)),
                             rho_grid=[0.3], ideal_check=False)
    if name == "file_gml":
        return FileWorkload(name, seed, *((150, 30, 1100) if tiny else (1222, 268, 22000)))
    raise ValueError(f"unknown workload {name!r}; expected one of {sorted(L1_OPS)}")
