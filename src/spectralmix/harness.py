"""Benchmark harness: parameter sweeps with replicate averaging, and the
four canonical small demonstration set-ups.

Replicate seeds derive from (master_seed, grid index, replicate index)
through one seed sequence, so a sweep is reproducible bit-for-bit and
replicates can run in any order and in any process: ``run_sweep`` fits
them in forked workers. The workers are kept between calls while the
package stands as they were forked from it, serve one sweep at a time,
and exit at interpreter exit or when the process that forked them dies.
Under glibc each worker keeps the heap it frees for its next draw
(``_worker_mallopt``); the calling process keeps its allocator as it is.
A set-up is a one-point sweep and runs through the same replicate loop.

Every draw goes through one spectral stage: ``spectral.top_k_eigs`` runs
once on the draw's adjacency, and the resulting ``SpectralPair`` is handed
to each method's ``estimators.estimate`` call, so ``scd`` and ``dfsp`` do
not each repeat the eigensolve.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import json
import numbers
import os
import sys
import threading
import time
from dataclasses import MISSING, dataclass, field, fields, replace

import numpy as np

from . import estimators as _estimators
from . import metrics as _metrics
from . import model as _model
from . import spectral as _spectral

DEFAULT_REPLICATES = 50


def _finite(value):
    """A finite real number, neither a bool nor a string."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and np.isfinite(value)


@dataclass
class ExperimentConfig:
    """Sweep description: model layout, edge distribution, rho grid. Every
    field is checked when built, by name."""

    n: int
    K: int
    n0: int
    mixed_profiles: list
    p_offdiag: float
    distribution: _model.EdgeDistribution
    rho_grid: list
    theta_rule: str = "uniform_half"
    replicates: int = DEFAULT_REPLICATES
    methods: tuple = ("scd", "dfsp")
    master_seed: int = 0
    keep_self_loops: bool = False

    def __post_init__(self):
        for name in ("n", "K", "n0", "replicates", "master_seed"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            setattr(self, name, int(value))  # a numpy integer would not write to JSON
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {self.master_seed}")
        for profile, count in self.mixed_profiles:
            if np.ndim(profile) != 1 or len(profile) != self.K or not all(map(_finite, profile)):
                raise ValueError(f"mixed profile must be a finite {self.K}-vector, got {profile!r}")
            if not isinstance(count, numbers.Integral) or isinstance(count, bool) or count < 0:
                raise ValueError(f"mixed profile {tuple(map(float, profile))} has count {count!r}; "
                                 f"counts must be non-negative integers")
        self.mixed_profiles = [(tuple(map(float, p)), int(c)) for p, c in self.mixed_profiles]
        if not _finite(self.p_offdiag):
            raise ValueError(f"p_offdiag must be a finite real number, got {self.p_offdiag!r}")
        self.p_offdiag = float(self.p_offdiag)
        if self.theta_rule not in _model.THETA_RULES:
            raise ValueError(f"theta_rule must be one of {_model.THETA_RULES}, "
                             f"got {self.theta_rule!r}")
        if not isinstance(self.keep_self_loops, bool):
            raise ValueError(f"keep_self_loops must be true or false, got {self.keep_self_loops!r}")
        if not self.rho_grid or not all(_finite(r) and r > 0 for r in self.rho_grid):
            raise ValueError(f"rho grid must be nonempty, finite and positive, got {self.rho_grid}")
        if not isinstance(self.distribution, _model.EdgeDistribution):
            raise ValueError(f"distribution must be an EdgeDistribution, got {self.distribution!r}")
        if not self.methods:
            raise ValueError("methods must name at least one method")
        unknown = [m for m in self.methods if m not in _estimators.ESTIMATORS]
        if unknown:
            raise ValueError(f"unknown method(s) {', '.join(map(repr, unknown))}; "
                             f"expected one of {sorted(_estimators.ESTIMATORS)}")
        repeated = sorted({m for m in self.methods if self.methods.count(m) > 1})
        if repeated:
            raise ValueError(f"method(s) {', '.join(map(repr, repeated))} listed more than once")

    def block_matrix(self):
        P = np.full((self.K, self.K), self.p_offdiag, dtype=float)
        np.fill_diagonal(P, 1.0)
        return _model.check_block_matrix(P)

    def membership(self):
        return _model.make_synthetic_membership(self.n, self.K, self.n0, self.mixed_profiles)

    def to_json(self):
        dist = {k: v for k, v in vars(self.distribution).items() if v is not None}
        return json.dumps({**vars(self), "distribution": dist}, indent=2)

    @classmethod
    def from_json(cls, text):
        """Parse ``to_json`` output; a missing or unknown field is a ValueError."""
        raw = json.loads(text)
        required = {f.name for f in fields(cls) if f.default is MISSING}
        for label, keys in (("missing", required - set(raw)),
                            ("unknown", set(raw) - {f.name for f in fields(cls)})):
            if keys:
                raise ValueError(f"experiment config has {label} field(s): {', '.join(sorted(keys))}")
        dist = raw["distribution"]
        if not (isinstance(dist, dict) and "kind" in dist and set(dist) <= {"kind", "variance"}):
            raise ValueError(f"distribution must be an object of kind and optional variance, "
                             f"got {json.dumps(dist)}")
        raw["distribution"] = _model.EdgeDistribution(**dist)
        if "methods" in raw:
            raw["methods"] = tuple(raw["methods"])
        return cls(**raw)


@dataclass
class SweepResult:
    config: ExperimentConfig
    grid: list
    # (method, rho) -> {"errors", "replicates", "seconds", "failures", "mean",
    # "std"}; "replicates" holds the replicate index behind each error
    table: dict
    invalid: dict = field(default_factory=dict)  # rho -> reason

    def valid_grid(self):
        return [rho for rho in self.grid if rho not in self.invalid]

    def write_csv(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
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
                        "failures": self.table[(method, rho)]["failures"],
                    }
                    for rho in self.valid_grid()
                }
                for method in self.config.methods
            },
        }


def _support_violation(core_min, core_max, rho, dist):
    """Worst-case expectation range at scale rho against the family support."""
    lo, hi = dist.support
    for mean in (core_min * rho * rho, core_max * rho * rho):
        if not lo <= mean <= hi:
            return f"{dist.kind} means would reach {mean:.4g}, outside [{lo:g}, {hi:g}]"
    return None


def _off_diagonal_range(Pi, P):
    """Least and greatest pi_i' P pi_j over node pairs i != j, from the
    distinct membership rows: a row pairs with itself only where two nodes
    hold it."""
    rows, counts = np.unique(Pi, axis=0, return_counts=True)
    core = rows @ P @ rows.T
    pairs = ~np.eye(len(rows), dtype=bool) | np.diag(counts > 1)
    return float(core[pairs].min()), float(core[pairs].max())


def draw_replicate(cfg, gi, rep, P, Pi):
    """Replicate ``rep`` at grid index ``gi`` of a sweep: its adjacency and
    the seed its estimators take. ``P`` and ``Pi`` are the config's block
    matrix and membership, built once per sweep by the caller."""
    ss = np.random.SeedSequence([int(cfg.master_seed), int(gi), int(rep)])
    s_theta, s_adj, s_est = (int(s) for s in ss.generate_state(3, dtype=np.uint64))
    theta = _model.make_theta(cfg.n, cfg.rho_grid[gi], cfg.theta_rule, seed=s_theta)
    omega = _model.build_omega(P, Pi, theta)
    A = _model.sample_adjacency(omega, cfg.distribution, seed=s_adj,
                                keep_self_loops=cfg.keep_self_loops)
    return A, s_est


def _fit_replicate(cfg, P, Pi, task):
    """Draw replicate ``task = (gi, rep)`` of a sweep, eigensolve it once
    and fit every method from that pair; returns ``(method, error,
    seconds)`` for each method that produced a fit."""
    A, s_est = draw_replicate(cfg, *task, P, Pi)
    t0 = time.perf_counter()
    try:
        pair = _spectral.top_k_eigs(A, cfg.K)
    except ValueError:  # LinAlgError included
        return []
    spectral_s = time.perf_counter() - t0
    fits = []
    for method in cfg.methods:
        t0 = time.perf_counter()
        try:
            result = _estimators.estimate(method, A, cfg.K, seed=s_est, pair=pair)
        except (_estimators.EstimationError, np.linalg.LinAlgError):
            continue
        dt = spectral_s + time.perf_counter() - t0
        fits.append((method, _metrics.l1_error_rate(result.Pi_hat, Pi).l1_rate, dt))
    return fits


_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc's malloc.h


def _worker_mallopt():
    """The ``(param, value)`` pairs that a sweep worker passes to glibc's
    ``mallopt``, or none where ``os.confstr`` does not name glibc.

    glibc returns a freed heap top above its trim threshold to the kernel,
    and its dynamic thresholds settle at about twice one n x n array, so
    each draw would fault back in, zero-filled, the pages the last one
    freed. The mmap threshold is set to the ceiling that glibc's dynamic
    threshold rises to (4 MiB times the size of a long: 32 MiB on 64-bit
    hosts, so n x n arrays up to n = 2048 stay on the heap), and the trim
    threshold to twice that, as glibc's dynamic rule would set it there.
    Fixing either one turns the dynamic rule off for both."""
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION") or ""
    except (AttributeError, ValueError, OSError):  # no confstr, or no such name
        libc = ""
    if not libc.startswith("glibc"):
        return ()
    import ctypes

    mmap_max = 4 * 1024 * 1024 * ctypes.sizeof(ctypes.c_long)
    return ((_M_MMAP_THRESHOLD, mmap_max), (_M_TRIM_THRESHOLD, 2 * mmap_max))


def _init_worker():
    """Worker initializer. Under glibc, keep the freed heap for the next
    draw (``_worker_mallopt``); a value that ``mallopt`` rejects (it
    returns 0) raises, which fails the sweep with ``BrokenProcessPool``
    rather than let it run untuned. Then exit as soon as the process that
    forked this worker dies, even by SIGKILL, rather than wait on its
    call queue for ever. The parent's sentinel reads end-of-file when it
    dies."""
    import multiprocessing
    from multiprocessing.connection import wait

    settings = _worker_mallopt()
    if settings:
        import ctypes

        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        for param, value in settings:
            if mallopt(param, value) != 1:
                raise OSError(f"glibc rejected mallopt({param}, {value})")

    sentinel = multiprocessing.parent_process().sentinel

    def watch():
        wait([sentinel])
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def _package_state():
    """What a worker reads from this package, as one flat list of objects:
    each loaded module of the package and its globals, and, at any depth,
    the items of dicts and the attributes of the package's own classes
    that those globals hold. A patch to any of them (``setattr`` on a
    module or on a class such as ``model.EdgeDistribution``, ``setitem``
    on a registry such as ``estimators.ESTIMATORS``) gives a list whose
    objects are not the same (``is``); the list holds references, so no
    id is reused while it is kept. State outside the package is not in
    it: numpy's error state, warning filters, ``os.environ``, patches to
    numpy, scipy or other packages, and attributes of instances.
    ``__builtins__`` is the interpreter's, and an interactive session
    rebinds its ``_`` at every result, so it is left out. So is a class's
    ``__slotnames__``, which pickling a task caches on the classes that
    the task holds (``ExperimentConfig``, ``EdgeDistribution``) the first
    time: it is no patch."""
    package = __name__.rpartition(".")[0]

    def ours(name):
        return name == package or name.startswith(package + ".")

    state, walked, pending = [], set(), []
    for name, module in list(sys.modules.items()):
        if ours(name):
            state += (name, module)
            pending.append(vars(module))
    while pending:
        for key, value in pending.pop().items():
            if key in ("__builtins__", "__slotnames__"):
                continue
            state += (key, value)
            if id(value) not in walked and (
                    isinstance(value, dict) or isinstance(value, type) and ours(value.__module__)):
                walked.add(id(value))
                pending.append(vars(value) if isinstance(value, type) else value)
    return state


class _SharedWorkers:
    """The forked worker pool that ``run_sweep`` keeps between calls.

    The pool holds the sweep's worker count (one per replicate task, up to
    one per usable CPU) and belongs to the process that forked it. It is
    reused by a sweep with the same worker count while the package stands
    as its workers were forked from it (``_package_state``); otherwise it
    is shut down and a new one forked. It serves one sweep at a time
    (``lock``). An exception that leaves a sweep, or a broken pool, shuts
    it down. A forked child forgets an inherited pool without touching
    it. Idle workers exit at interpreter exit, when ``concurrent.futures``
    shuts every pool down, or when their owner dies
    (``_init_worker``).
    """

    def __init__(self):
        self.lock = threading.Lock()
        self.key = self.state = self.pool = None

    def pool_for(self, jobs):
        key, state = (os.getpid(), jobs), _package_state()
        if self.pool is not None and (
                self.key != key or getattr(self.pool, "_broken", False)
                or len(self.state) != len(state)
                or any(a is not b for a, b in zip(self.state, state))):
            self.drop()
        if self.pool is None:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            # fork, not spawn: a worker inherits the caller's modules as they
            # stand, patched attributes included, and imports nothing again;
            # the executor, unlike multiprocessing.Pool, reports a worker
            # exception it cannot rebuild as BrokenProcessPool, not a hang
            self.pool = ProcessPoolExecutor(jobs, mp_context=multiprocessing.get_context("fork"),
                                            initializer=_init_worker)
            self.key, self.state = key, state
        return self.pool

    def drop(self, cancel_futures=False):
        """Forget the pool; shut it down, joining its threads, if this
        process owns it."""
        pool, key = self.pool, self.key
        self.key = self.state = self.pool = None
        if pool is not None and key[0] == os.getpid():
            pool.shutdown(cancel_futures=cancel_futures)

    def drop_on_error(self, exc_type, exc, tb):
        # on an early exit, replicates not yet started are dropped
        if exc_type is not None:
            self.drop(cancel_futures=True)


_WORKERS = _SharedWorkers()


def run_sweep(cfg, progress=None):
    """Run every (grid point, replicate, method) cell of a sweep.

    Each replicate draws a fresh theta and adjacency and eigensolves it
    once; every method fits from that one spectral pair. A fit that raises
    ``EstimationError`` or ``LinAlgError`` counts as a failed replicate of
    its method; an eigensolve that raises ``ValueError`` (``LinAlgError``
    included, as is an all-zero draw) counts as a failed replicate of every
    method. A method's ``seconds`` is the time to produce its fit from the
    adjacency: the shared eigensolve's time is charged in full to each
    method, as when each method solved it itself. Grid points whose
    worst-case expectation range violates the distribution support, or
    where a method fails on every replicate, are skipped with a recorded
    reason instead of clamped; ``progress`` is called for valid points only,
    in grid order.

    Replicates are fitted in forked worker processes, one per replicate
    task up to one per usable CPU, or in this process when that is fewer
    than two. The workers are kept for the next call with as many: they
    pay off when a process runs several sweeps, and a process that runs
    one sweep forks them once, as it would anyway. They are reused while
    every object that ``_package_state`` lists (the package's globals, at
    any depth the items of its dicts and the attributes of its classes)
    is the one it was when they were forked; a patch to any of these
    forks new ones. Other state, such as numpy's error state, warning
    filters, ``os.environ`` or patches to other packages, stays in the
    workers as it was at their fork. They serve one sweep at a time: a
    sweep started while another holds them, from another thread or from
    ``progress``, fits in process. An exception leaving this call shuts
    them down. Under glibc each worker, as it starts, fixes malloc's mmap
    and trim thresholds (``_worker_mallopt``), so that it keeps the heap
    it frees for its next draw in place of faulting it back in; this
    process's allocator, and so the in-process route, is left as it is.
    A replicate's seeds do not depend on where it runs, and allocator
    settings do not change arithmetic, so the tables are the same for any
    worker count.
    """
    Pi = cfg.membership()
    P = cfg.block_matrix()
    core_min, core_max = _off_diagonal_range(Pi, P)

    screen = [_support_violation(core_min, core_max, rho, cfg.distribution)
              for rho in cfg.rho_grid]
    tasks = [(gi, rep) for gi, reason in enumerate(screen) if not reason
             for rep in range(cfg.replicates)]
    fit = functools.partial(_fit_replicate, cfg, P, Pi)
    # platforms without sched_getaffinity (macOS, Windows) lack a safe fork
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    jobs = min(cpus, len(tasks))

    table = {}
    invalid = {}
    with contextlib.ExitStack() as stack:
        if jobs >= 2 and _WORKERS.lock.acquire(blocking=False):
            stack.callback(_WORKERS.lock.release)
            stack.push(_WORKERS.drop_on_error)
            results = _WORKERS.pool_for(jobs).map(fit, tasks,
                                                  chunksize=max(1, len(tasks) // (4 * jobs)))
        else:
            results = map(fit, tasks)
        for rho, reason in zip(cfg.rho_grid, screen):
            if reason:
                invalid[rho] = reason
                continue
            errors = {m: [] for m in cfg.methods}
            seconds = {m: [] for m in cfg.methods}
            replicates = {m: [] for m in cfg.methods}
            for rep in range(cfg.replicates):
                for method, error, dt in next(results):
                    errors[method].append(error)
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


EXPERIMENT_PROFILES = [(0.1, 0.1, 0.8), (0.1, 0.8, 0.1), (0.8, 0.1, 0.1), (1 / 3, 1 / 3, 1 / 3)]


def experiment_config(exp_id, n=400, n0=40, replicates=DEFAULT_REPLICATES, master_seed=0):
    """The four canonical synthetic sweeps (one per edge-weight family).

    K=3, as the four canonical profiles are 3-vectors, and mixed nodes
    split evenly across them; the grid and block off-diagonal follow the
    family (negative for normal/signed, positive for bernoulli/poisson).
    """
    if exp_id == 1:
        p, dist = -0.2, _model.EdgeDistribution("normal", 2.0)
        grid = [round(0.1 * i, 10) for i in range(1, 21)]
    elif exp_id == 2:
        p, dist = 0.2, _model.EdgeDistribution("bernoulli")
        grid = [round(0.1 * i, 10) for i in range(1, 11)]
    elif exp_id == 3:
        p, dist = 0.2, _model.EdgeDistribution("poisson")
        grid = [round(0.2 * i, 10) for i in range(1, 11)]
    elif exp_id == 4:
        p, dist = -0.2, _model.EdgeDistribution("signed")
        grid = [round(0.1 * i, 10) for i in range(1, 11)]
    else:
        raise ValueError("experiment id must be 1, 2, 3 or 4")
    if n < 3 * n0:
        raise ValueError(f"n={n} is below the 3*{n0} = {3 * n0} pure rows")
    count, rest = divmod(n - 3 * n0, len(EXPERIMENT_PROFILES))
    if rest:
        raise ValueError(f"n={n} does not split into 3*{n0} pure plus 4 equal mixed groups")
    profiles = [(prof, count) for prof in EXPERIMENT_PROFILES]
    return ExperimentConfig(
        n=n, K=3, n0=n0, mixed_profiles=profiles, p_offdiag=p,
        distribution=dist, rho_grid=grid, replicates=replicates,
        master_seed=master_seed,
    )


SETUP_PARAMS = {
    1: dict(n=16, n0=6, rho=10.0, p_offdiag=-0.2, distribution=_model.EdgeDistribution("normal", 1.0)),
    2: dict(n=30, n0=10, rho=1.0, p_offdiag=0.2, distribution=_model.EdgeDistribution("bernoulli")),
    3: dict(n=24, n0=8, rho=10.0, p_offdiag=0.2, distribution=_model.EdgeDistribution("poisson")),
    4: dict(n=30, n0=12, rho=1.0, p_offdiag=-0.2, distribution=_model.EdgeDistribution("signed")),
}


def setup_config(setup_id):
    """Demonstration set-up 1..4 as a one-point sweep config.

    Two communities, n0 pure nodes each, a (0.7, 0.3) mixed tail, and the
    deterministic ramp theta at the set-up's rho.
    """
    if setup_id not in SETUP_PARAMS:
        raise ValueError("setup id must be 1, 2, 3 or 4")
    params = SETUP_PARAMS[setup_id]
    n, n0 = params["n"], params["n0"]
    return ExperimentConfig(
        n=n, K=2, n0=n0, mixed_profiles=[((0.7, 0.3), n - 2 * n0)],
        p_offdiag=params["p_offdiag"], distribution=params["distribution"],
        rho_grid=[params["rho"]], theta_rule="linear_ramp",
    )


def run_setup_replicates(setup_id, reps=DEFAULT_REPLICATES, master_seed=0):
    """Fit each method to ``reps`` fresh draws of a set-up; returns each
    method's error array.

    The set-up runs as the one-point sweep ``setup_config(setup_id)`` with
    ``reps`` replicates at ``master_seed``, so its draws are seeded as a
    sweep's and a failed fit is left out of its method's array. A method
    that fails on every draw raises ``EstimationError``."""
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    cfg = replace(setup_config(setup_id), replicates=reps, master_seed=master_seed)
    sweep = run_sweep(cfg)
    rho = cfg.rho_grid[0]
    if rho in sweep.invalid:
        raise _estimators.EstimationError(f"set-up {setup_id}: {sweep.invalid[rho]}")
    return {m: np.array(sweep.table[(m, rho)]["errors"]) for m in cfg.methods}
