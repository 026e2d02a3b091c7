import csv
import dataclasses
import functools
import json
import multiprocessing
import os
import re
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import SCALING_FLATNESS_FACTOR, scaling_check, sweep_draw
import spectralmix
from spectralmix import corners, estimators, harness, metrics, model, spectral
from spectralmix.harness import (
    EXPERIMENT_PROFILES,
    ExperimentConfig,
    experiment_config,
    run_setup_replicates,
    run_sweep,
    setup_config,
)
from spectralmix.model import EdgeDistribution


def tiny_config(**overrides):
    base = dict(
        n=36, K=2, n0=12,
        mixed_profiles=[((0.6, 0.4), 12)],
        p_offdiag=0.2,
        distribution=EdgeDistribution("normal", 0.0),
        rho_grid=[0.5, 1.0],
        theta_rule="uniform_half",
        replicates=2,
        methods=("scd", "dfsp"),
        master_seed=7,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def log_eigensolves(monkeypatch, path):
    """Append the solving process's id to ``path`` at every eigensolve; a
    file, not a list, so that calls made in sweep workers count too."""
    real_top_k_eigs = spectral.top_k_eigs

    def logged(M, K):
        with open(path, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return real_top_k_eigs(M, K)

    monkeypatch.setattr(spectral, "top_k_eigs", logged)


class TestRunSweep:
    def test_noiseless_normal_is_exact(self):
        # zero-variance normal with self loops kept makes A coincide with the
        # expectation matrix, so the pipeline must recover exactly
        sweep = run_sweep(tiny_config(keep_self_loops=True))
        for rho in sweep.valid_grid():
            assert sweep.table[("scd", rho)]["mean"] <= 1e-6

    def test_reproducible_bitwise(self):
        a = run_sweep(tiny_config(distribution=EdgeDistribution("normal", 0.5)))
        b = run_sweep(tiny_config(distribution=EdgeDistribution("normal", 0.5)))
        for key in a.table:
            assert a.table[key]["errors"] == b.table[key]["errors"]

    def test_replicates_are_prefix_stable(self):
        # replicate seeds depend only on (master seed, grid index, replicate
        # index), so extending the replicate count preserves earlier draws
        short = run_sweep(tiny_config(distribution=EdgeDistribution("normal", 0.5),
                                      replicates=2))
        long = run_sweep(tiny_config(distribution=EdgeDistribution("normal", 0.5),
                                     replicates=4))
        for rho in short.valid_grid():
            assert long.table[("scd", rho)]["errors"][:2] == short.table[("scd", rho)]["errors"]

    def test_errors_are_fits_of_the_drawn_replicates(self):
        cfg = tiny_config(distribution=EdgeDistribution("normal", 0.5))
        sweep = run_sweep(cfg)
        for rho in cfg.rho_grid:
            for rep in range(cfg.replicates):
                A, seed = sweep_draw(cfg, rho, rep)
                for method in cfg.methods:
                    fit = estimators.estimate(method, A, cfg.K, seed=seed)
                    error = metrics.l1_error_rate(fit.Pi_hat, cfg.membership()).l1_rate
                    assert sweep.table[(method, rho)]["errors"][rep] == error

    def test_mean_is_arithmetic_average(self):
        sweep = run_sweep(tiny_config(distribution=EdgeDistribution("normal", 1.0),
                                      replicates=3))
        for key, cell in sweep.table.items():
            assert cell["mean"] == pytest.approx(np.mean(cell["errors"]), abs=1e-12)

    def test_support_violation_skips_point(self):
        cfg = tiny_config(distribution=EdgeDistribution("bernoulli"), rho_grid=[0.5, 1.2])
        sweep = run_sweep(cfg)
        assert 1.2 in sweep.invalid
        assert "bernoulli" in sweep.invalid[1.2]
        assert 0.5 in sweep.valid_grid()

    def test_method_failing_everywhere_skips_progress(self, monkeypatch):
        def always_fails(A, K, seed=0, pair=None):
            raise estimators.EstimationError("corner block is singular")

        monkeypatch.setitem(estimators.ESTIMATORS, "dfsp", always_fails)
        calls = []
        sweep = run_sweep(tiny_config(), progress=lambda rho, means: calls.append(rho))
        assert calls == []
        assert sweep.valid_grid() == []
        assert all("dfsp failed on all 2 replicates" in r for r in sweep.invalid.values())

    def test_margin_solve_at_its_step_bound_fails_the_fit(self, monkeypatch):
        # the margin solve raises EstimationError at its step bound, which
        # fails scd's fits without stopping the sweep
        monkeypatch.setattr(corners, "_nnls", functools.partial(corners._nnls, maxiter=1))
        sweep = run_sweep(tiny_config())
        assert sweep.valid_grid() == []
        assert all("scd failed on all 2 replicates" in r for r in sweep.invalid.values())

    def test_linalg_failure_on_one_replicate(self, monkeypatch, tmp_path):
        cfg = tiny_config(distribution=EdgeDistribution("normal", 0.5), replicates=3)
        clean = run_sweep(cfg)
        first = {sweep_draw(cfg, rho, 0)[1] for rho in cfg.rho_grid}
        real_dfsp = estimators.ESTIMATORS["dfsp"]

        def fails_on_replicate_zero(A, K, seed=0, pair=None):
            if seed in first:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return real_dfsp(A, K, seed=seed, pair=pair)

        monkeypatch.setitem(estimators.ESTIMATORS, "dfsp", fails_on_replicate_zero)
        sweep = run_sweep(cfg)
        assert sweep.valid_grid() == cfg.rho_grid
        for rho in cfg.rho_grid:
            cell = sweep.table[("dfsp", rho)]
            assert cell["failures"] == 1 and cell["replicates"] == [1, 2]
            assert cell["errors"] == clean.table[("dfsp", rho)]["errors"][1:]
            assert sweep.table[("scd", rho)]["errors"] == clean.table[("scd", rho)]["errors"]
        sweep.write_csv(tmp_path / "sweep.csv")
        rows = list(csv.DictReader((tmp_path / "sweep.csv").read_text().splitlines()))
        for method, reps in (("scd", ["0", "1", "2"]), ("dfsp", ["1", "2"])):
            for rho in cfg.rho_grid:
                got = [r for r in rows if r["method"] == method and float(r["rho"]) == rho]
                assert [r["replicate"] for r in got] == reps
                assert [float(r["error"]) for r in got] == pytest.approx(
                    sweep.table[(method, rho)]["errors"], abs=1e-9)

    @pytest.mark.parametrize("error", [np.linalg.LinAlgError, ValueError])
    def test_shared_eigensolve_failure_fails_every_method(self, monkeypatch, error):
        cfg = tiny_config(distribution=EdgeDistribution("normal", 0.5), replicates=3)
        clean = run_sweep(cfg)
        real_top_k_eigs = spectral.top_k_eigs
        first = [sweep_draw(cfg, rho, 0)[0] for rho in cfg.rho_grid]

        def fails_on_replicate_zero(M, K):
            if any(np.array_equal(M, A) for A in first):
                raise error("eigensolve failed")
            return real_top_k_eigs(M, K)

        monkeypatch.setattr(spectral, "top_k_eigs", fails_on_replicate_zero)
        sweep = run_sweep(cfg)
        assert sweep.valid_grid() == cfg.rho_grid
        for method in cfg.methods:
            for rho in cfg.rho_grid:
                cell = sweep.table[(method, rho)]
                assert cell["failures"] == 1 and cell["replicates"] == [1, 2]
                assert cell["errors"] == clean.table[(method, rho)]["errors"][1:]

    def test_all_zero_draw_fails_every_method(self, monkeypatch):
        cfg = tiny_config(distribution=EdgeDistribution("normal", 0.5), replicates=3)
        clean = run_sweep(cfg)
        real_sample_adjacency = model.sample_adjacency
        first = [sweep_draw(cfg, rho, 0)[0] for rho in cfg.rho_grid]

        def zero_on_replicate_zero(omega, dist, **kwargs):
            A = real_sample_adjacency(omega, dist, **kwargs)
            return np.zeros_like(A) if any(np.array_equal(A, B) for B in first) else A

        monkeypatch.setattr(model, "sample_adjacency", zero_on_replicate_zero)
        sweep = run_sweep(cfg)
        assert sweep.valid_grid() == cfg.rho_grid
        for method in cfg.methods:
            for rho in cfg.rho_grid:
                cell = sweep.table[(method, rho)]
                assert cell["failures"] == 1 and cell["replicates"] == [1, 2]
                assert cell["errors"] == clean.table[(method, rho)]["errors"][1:]

    def test_one_eigensolve_per_replicate(self, monkeypatch, tmp_path):
        cfg = tiny_config(distribution=EdgeDistribution("normal", 0.5), replicates=3)
        calls = tmp_path / "calls"
        log_eigensolves(monkeypatch, calls)
        sweep = run_sweep(cfg)
        assert len(cfg.methods) == 2 and sweep.valid_grid() == cfg.rho_grid
        assert calls.read_text().count("\n") == len(cfg.rho_grid) * cfg.replicates

    def test_bad_grid_rejected(self):
        with pytest.raises(ValueError):
            tiny_config(rho_grid=[])
        with pytest.raises(ValueError):
            tiny_config(rho_grid=[0.5, -1.0])
        with pytest.raises(ValueError):
            tiny_config(replicates=0)

    def test_csv_and_summary_outputs(self, tmp_path):
        sweep = run_sweep(tiny_config(distribution=EdgeDistribution("normal", 0.2)))
        csv_path = tmp_path / "sweep.csv"
        sweep.write_csv(csv_path)
        rows = list(csv.DictReader(csv_path.read_text().splitlines()))
        assert {r["method"] for r in rows} == {"scd", "dfsp"}
        assert len(rows) == 2 * 2 * 2  # methods x grid x replicates
        assert all(float(r["error"]) >= 0 for r in rows)
        assert set(sweep.summary()["methods"]) == {"scd", "dfsp"}


def untimed(sweep):
    """A sweep's table, invalid reasons and summary, without ``seconds``."""
    table = {key: {k: v for k, v in cell.items() if k != "seconds"}
             for key, cell in sweep.table.items()}
    return table, sweep.invalid, sweep.summary()


class TwoArgumentError(Exception):
    """Pickles by its message only, so it cannot be rebuilt from a worker."""

    def __init__(self, check, detail):
        super().__init__(f"{check}: {detail}")


two_cpus = pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                              reason="fewer than 2 usable CPUs: every sweep runs in process")


def worker_pids():
    return {p.pid for p in multiprocessing.active_children()}


def running(pid):
    """Whether process ``pid`` exists and has not exited (a zombie has)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rpartition(")")[2].split()[0] not in "ZX"
    except FileNotFoundError:
        return False


# runs a 40-task sweep in a new process; the first progress call prints the
# worker pids, and with "kill" the process then SIGKILLs itself mid-sweep
OWNER_SCRIPT = """
import multiprocessing, os, signal, sys
from spectralmix.harness import experiment_config, run_sweep

def progress(rho, means):
    if rho == 0.1:
        print(*(p.pid for p in multiprocessing.active_children()), flush=True)
        if sys.argv[1] == "kill":
            os.kill(os.getpid(), signal.SIGKILL)

run_sweep(experiment_config(1, n=80, n0=8, replicates=2), progress=progress)
"""


# runs three sweeps in a new process and prints the worker pids after each;
# pickling the first sweep's tasks caches __slotnames__ on the config classes
SHARED_SCRIPT = """
import multiprocessing
from spectralmix.harness import experiment_config, run_sweep

for _ in range(3):
    run_sweep(experiment_config(2, n=80, n0=8, replicates=2))
    print(*sorted(p.pid for p in multiprocessing.active_children()), flush=True)
"""


def minor_faults_per_refit(cfg, tasks):
    """Fit replicate ``tasks`` of ``cfg``, then fit them again; returns the
    minor page faults per replicate of the second pass."""
    P, Pi = cfg.block_matrix(), cfg.membership()
    for task in tasks:
        harness._fit_replicate(cfg, P, Pi, task)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for task in tasks:
        harness._fit_replicate(cfg, P, Pi, task)
    return (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / len(tasks)


glibc = pytest.mark.skipif(not harness._worker_mallopt(),
                           reason="the C library is not glibc: workers keep its defaults")


def src_env():
    """This environment, with the package's source directory on PYTHONPATH."""
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(spectralmix.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}


class TestWorkers:
    """``run_sweep`` fits replicates in forked workers when two or more CPUs
    are usable, and in process otherwise, with the same tables. The workers
    are kept between sweeps while the package is unpatched since their
    fork, and exit with their owner."""

    @staticmethod
    def one_cpu(monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})

    @two_cpus
    @pytest.mark.parametrize("cfg", [
        *(experiment_config(e, n=80, n0=8, replicates=3) for e in (1, 2, 3, 4)),
        *(dataclasses.replace(setup_config(s), replicates=10) for s in (1, 2, 3, 4)),
    ], ids=[*(f"experiment{e}" for e in (1, 2, 3, 4)), *(f"setup{s}" for s in (1, 2, 3, 4))])
    def test_tables_do_not_depend_on_the_worker_count(self, cfg, monkeypatch):
        in_workers = untimed(run_sweep(cfg))
        self.one_cpu(monkeypatch)
        assert untimed(run_sweep(cfg)) == in_workers

    @two_cpus
    def test_replicates_run_in_workers_unless_one_cpu_or_one_task(self, monkeypatch, tmp_path):
        pids = tmp_path / "pids"

        def solved_in():
            found = set(pids.read_text().split())
            pids.unlink()
            return found

        log_eigensolves(monkeypatch, pids)
        run_sweep(tiny_config())
        assert str(os.getpid()) not in solved_in()
        run_sweep(tiny_config(rho_grid=[1.0], replicates=1))
        assert solved_in() == {str(os.getpid())}
        self.one_cpu(monkeypatch)
        run_sweep(tiny_config())
        assert solved_in() == {str(os.getpid())}

    @two_cpus
    def test_worker_error_reaches_the_caller(self, monkeypatch):
        def fails(M, K):
            raise RuntimeError("stub failed in a worker")

        monkeypatch.setattr(spectral, "top_k_eigs", fails)
        with pytest.raises(RuntimeError, match="^stub failed in a worker$"):
            run_sweep(tiny_config())
        assert multiprocessing.active_children() == []

    @two_cpus
    def test_worker_error_that_cannot_be_rebuilt_ends_the_sweep(self, monkeypatch):
        def fails(M, K):
            raise TwoArgumentError("estimate_valid", "stub failed in a worker")

        def hung(signum, frame):
            raise TimeoutError("run_sweep did not return within 60 s")

        monkeypatch.setattr(spectral, "top_k_eigs", fails)
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)
        try:
            with pytest.raises(Exception) as raised:
                run_sweep(tiny_config())
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert not isinstance(raised.value, TimeoutError)
        assert multiprocessing.active_children() == []

    @two_cpus
    def test_error_in_progress_drops_the_replicates_not_started(self, monkeypatch, tmp_path):
        cfg = tiny_config(rho_grid=[0.1 * i for i in range(1, 11)], replicates=20)
        calls = tmp_path / "calls"

        def stop(rho, means):
            raise KeyError("progress failed")

        log_eigensolves(monkeypatch, calls)
        with pytest.raises(KeyError, match="progress failed"):
            run_sweep(cfg, progress=stop)
        assert multiprocessing.active_children() == []
        assert calls.read_text().count("\n") < len(cfg.rho_grid) * cfg.replicates

    @two_cpus
    def test_back_to_back_sweeps_share_the_workers(self, monkeypatch, tmp_path):
        pids = tmp_path / "pids"
        log_eigensolves(monkeypatch, pids)
        first = untimed(run_sweep(tiny_config()))
        workers = worker_pids()
        assert len(workers) == min(len(os.sched_getaffinity(0)), 4)  # one per task at most
        assert untimed(run_sweep(tiny_config())) == first
        assert worker_pids() == workers
        assert set(map(int, pids.read_text().split())) <= workers

    @two_cpus
    def test_a_new_process_keeps_its_first_workers(self):
        # earlier tests have pickled the config classes in this process
        lines = subprocess.run([sys.executable, "-c", SHARED_SCRIPT], env=src_env(),
                               capture_output=True, text=True, check=True,
                               timeout=120).stdout.splitlines()
        assert len(lines) == 3 and len(lines[0].split()) == min(len(os.sched_getaffinity(0)), 20)
        assert lines[0] == lines[1] == lines[2]

    @glibc
    def test_workers_keep_their_freed_heap(self):
        # untuned, glibc hands the freed top of the heap back after each
        # draw: about 1,200 pages per refit at n=400
        cfg = experiment_config(2, master_seed=5)
        with harness._WORKERS.lock:
            pool = harness._WORKERS.pool_for(2)
            faults = pool.submit(minor_faults_per_refit, cfg, [(0, 0), (0, 1)]).result(120)
        assert faults < 50

    @glibc
    @two_cpus
    def test_rejected_allocator_setting_fails_the_sweep(self, monkeypatch):
        from concurrent.futures.process import BrokenProcessPool

        # M_MXFAST (1), the fastbin size limit, above its maximum of 160 bytes
        too_high = ((1, 1 << 20),)
        monkeypatch.setattr(harness, "_worker_mallopt", lambda: too_high)
        with pytest.raises(BrokenProcessPool):
            run_sweep(tiny_config())
        assert multiprocessing.active_children() == []

    @two_cpus
    def test_patches_reach_the_workers_and_their_undoing_too(self, monkeypatch, tmp_path):
        def always_fails(A, K, seed=0, pair=None):
            raise estimators.EstimationError("corner block is singular")

        original = untimed(run_sweep(tiny_config()))
        pids = tmp_path / "pids"
        log_eigensolves(monkeypatch, pids)
        assert untimed(run_sweep(tiny_config())) == original
        assert str(os.getpid()) not in pids.read_text().split()
        monkeypatch.setitem(estimators.ESTIMATORS, "dfsp", always_fails)
        sweep = run_sweep(tiny_config())
        assert sweep.valid_grid() == []
        assert all("dfsp failed on all 2 replicates" in r for r in sweep.invalid.values())
        monkeypatch.undo()
        pids.unlink()
        assert untimed(run_sweep(tiny_config())) == original
        assert not pids.exists()

    @two_cpus
    def test_class_and_nested_patches_reach_the_workers(self, monkeypatch):
        original = untimed(run_sweep(tiny_config()))
        workers = worker_pids()
        monkeypatch.setitem(harness.SETUP_PARAMS[1], "n", 17)
        assert untimed(run_sweep(tiny_config())) == original
        assert worker_pids().isdisjoint(workers)
        # every draw all zero: every eigensolve fails, in every worker
        monkeypatch.setattr(model.EdgeDistribution, "sample",
                            lambda self, means, rng: np.zeros(np.shape(means)))
        sweep = run_sweep(tiny_config())
        assert sweep.valid_grid() == [] and len(sweep.invalid) == 2
        monkeypatch.undo()
        assert untimed(run_sweep(tiny_config())) == original

    @two_cpus
    def test_workers_number_at_most_one_per_task(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3, 4, 5})
        two_tasks = tiny_config(rho_grid=[0.5])
        expected = untimed(run_sweep(two_tasks))
        assert len(worker_pids()) == 2
        run_sweep(tiny_config())
        assert len(worker_pids()) == 4
        assert untimed(run_sweep(two_tasks)) == expected
        assert len(worker_pids()) == 2

    @two_cpus
    def test_worker_error_gives_the_next_sweep_fresh_workers(self, monkeypatch):
        real_top_k_eigs = spectral.top_k_eigs

        def fails_at_n30(M, K):
            if M.shape[0] == 30:
                raise RuntimeError("stub failed in a worker")
            return real_top_k_eigs(M, K)

        monkeypatch.setattr(spectral, "top_k_eigs", fails_at_n30)
        run_sweep(tiny_config())
        before = worker_pids()
        with pytest.raises(RuntimeError, match="^stub failed in a worker$"):
            run_sweep(tiny_config(n=30, n0=9))
        assert multiprocessing.active_children() == []
        in_workers = untimed(run_sweep(tiny_config()))
        assert worker_pids().isdisjoint(before)
        self.one_cpu(monkeypatch)
        assert untimed(run_sweep(tiny_config())) == in_workers

    @two_cpus
    def test_pool_broken_while_idle_is_not_reused(self):
        expected = untimed(run_sweep(tiny_config()))
        os.kill(min(worker_pids()), signal.SIGKILL)
        # the pool notices the death, ends its other workers and joins them
        deadline = time.monotonic() + 30
        while multiprocessing.active_children() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert multiprocessing.active_children() == []
        assert untimed(run_sweep(tiny_config())) == expected
        assert len(worker_pids()) == min(len(os.sched_getaffinity(0)), 4)

    @two_cpus
    def test_sweep_started_while_the_workers_are_busy_fits_in_process(self, monkeypatch,
                                                                      tmp_path):
        solves = tmp_path / "solves"
        real_top_k_eigs = spectral.top_k_eigs

        def logged(M, K):
            with open(solves, "a") as fh:
                fh.write(f"{M.shape[0]} {os.getpid()}\n")
            return real_top_k_eigs(M, K)

        inner = tiny_config(n=30, n0=9)
        expected = untimed(run_sweep(inner))
        monkeypatch.setattr(spectral, "top_k_eigs", logged)
        nested = []

        def progress(rho, means):
            nested.append(untimed(run_sweep(inner)))

        run_sweep(tiny_config(), progress=progress)
        assert nested == [expected] * 2
        solved_in = {}
        for line in solves.read_text().splitlines():
            n, pid = map(int, line.split())
            solved_in.setdefault(n, set()).add(pid)
        assert solved_in[30] == {os.getpid()} and os.getpid() not in solved_in[36]

    @two_cpus
    # Python 3.12 warns of a fork while the pool's threads run
    @pytest.mark.filterwarnings("ignore:.*use of fork\\(\\) may lead to deadlocks")
    def test_forked_child_leaves_the_inherited_workers_alone(self, tmp_path):
        expected = untimed(run_sweep(tiny_config()))
        workers = worker_pids()
        pid = os.fork()
        if pid == 0:  # the child: sweep on its own workers, then shut them down
            code = 1
            try:
                code = 0 if untimed(run_sweep(tiny_config())) == expected else 2
                harness._WORKERS.drop()
            finally:
                os._exit(code)
        deadline = time.monotonic() + 60
        reaped, status = os.waitpid(pid, os.WNOHANG)
        while not reaped and time.monotonic() < deadline:
            time.sleep(0.05)
            reaped, status = os.waitpid(pid, os.WNOHANG)
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's sweep did not end within 60 s")
        assert os.waitstatus_to_exitcode(status) == 0
        assert untimed(run_sweep(tiny_config())) == expected
        assert worker_pids() == workers and all(map(running, workers))

    @two_cpus
    @pytest.mark.parametrize("how", ["exit", "kill"])
    def test_workers_end_with_their_owner(self, how, tmp_path):
        # files, not pipes: orphaned workers would hold a pipe open
        out, err = tmp_path / "pids", tmp_path / "err"
        with open(out, "w") as stdout, open(err, "w") as stderr:
            owner = subprocess.run([sys.executable, "-c", OWNER_SCRIPT, how], env=src_env(),
                                   stdout=stdout, stderr=stderr, timeout=120)
        pids = [int(p) for p in out.read_text().split()]
        try:
            assert owner.returncode == (-signal.SIGKILL if how == "kill" else 0), err.read_text()
            assert len(pids) == min(len(os.sched_getaffinity(0)), 40)
            for _ in range(100):
                if not any(map(running, pids)):
                    break
                time.sleep(0.1)
            assert not any(map(running, pids))
        finally:
            for pid in filter(running, pids):
                os.kill(pid, signal.SIGKILL)

    def test_progress_fires_once_per_valid_point_in_grid_order(self):
        # at rho = 1.2 the pure-pair bernoulli mean is 1.44 > 1
        cfg = experiment_config(2, n=80, n0=8, replicates=2)
        cfg.rho_grid = [0.5, 1.2, 0.8, 0.3]
        calls = []
        sweep = run_sweep(cfg, progress=lambda rho, means: calls.append((rho, means)))
        assert [rho for rho, _ in calls] == [0.5, 0.8, 0.3] == sweep.valid_grid()
        for rho, means in calls:
            assert means == {m: sweep.table[(m, rho)]["mean"] for m in cfg.methods}

    def test_simulate_prints_each_line_once(self, tmp_path):
        # stdout is a buffered pipe, so the first line is still buffered when
        # the workers fork; a child that flushed its copy would print it again
        cfg = experiment_config(2, n=80, n0=8, replicates=2)
        cfg.rho_grid = [0.5, 1.2, 0.8]
        (tmp_path / "sweep.json").write_text(cfg.to_json())
        code = ("import sys; from spectralmix import cli; print('simulate'); "
                "sys.exit(cli.main(sys.argv[1:]))")
        src = Path(spectralmix.__file__).resolve().parents[1]
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])
        stdout = subprocess.run(
            [sys.executable, "-c", code, "simulate", "--config", str(tmp_path / "sweep.json"),
             "--out", str(tmp_path / "run")],
            capture_output=True, text=True, env=env, check=True, timeout=120).stdout
        lines = stdout.splitlines()
        assert lines[0] == "simulate" and [line.split(":")[0] for line in lines[1:3]] == [
            "rho=0.5", "rho=0.8"]
        assert lines[3].startswith("skipped rho=1.2: ") and lines[4].startswith("wrote ")
        assert len(lines) == 5


class TestSupportScreen:
    """``run_sweep`` screens each grid point on the range of pi_i' P pi_j
    over node pairs i != j, taken from the distinct membership rows."""

    @staticmethod
    def n_by_n_range(Pi, P):
        core = Pi @ P @ Pi.T
        off = ~np.eye(len(Pi), dtype=bool)
        return float(core[off].min()), float(core[off].max())

    @pytest.mark.parametrize("cfg", [
        *(experiment_config(e, n=80, n0=8) for e in (1, 2, 3, 4)),
        *(setup_config(s) for s in (1, 2, 3, 4)),
        tiny_config(mixed_profiles=[((0.6, 0.4), 1), ((0.5, 0.5), 11)]),
    ], ids=[*(f"experiment{e}" for e in (1, 2, 3, 4)), *(f"setup{s}" for s in (1, 2, 3, 4)),
            "lone-mixed-row"])
    def test_matches_the_n_by_n_range(self, cfg):
        Pi, P = cfg.membership(), cfg.block_matrix()
        assert harness._off_diagonal_range(Pi, P) == self.n_by_n_range(Pi, P)

    def test_a_row_pairs_with_itself_only_when_two_nodes_hold_it(self):
        # one node per row: the pure rows' 1.0 is never a pair's value
        cfg = tiny_config(n=3, n0=1, mixed_profiles=[((0.9, 0.1), 1)], p_offdiag=-0.2)
        Pi, P = cfg.membership(), cfg.block_matrix()
        assert harness._off_diagonal_range(Pi, P) == self.n_by_n_range(Pi, P)
        assert harness._off_diagonal_range(Pi, P) == pytest.approx((-0.2, 0.88), abs=1e-12)
        # with pure rows present a mixed row's value with itself lies within
        # its values with them, so rows without them show its screen: held
        # twice, (0.9, 0.1) pairs with itself at 0.784; held once, it does not
        for twice, expected in ((True, (0.4, 0.784)), (False, (0.4, 0.4))):
            Pi = np.array([[0.9, 0.1]] * (1 + twice) + [[0.5, 0.5]])
            assert harness._off_diagonal_range(Pi, P) == self.n_by_n_range(Pi, P)
            assert harness._off_diagonal_range(Pi, P) == pytest.approx(expected, abs=1e-12)


class TestExperimentConfigs:
    def test_grids_follow_the_four_families(self):
        e1 = experiment_config(1)
        assert e1.distribution.kind == "normal" and e1.p_offdiag == -0.2
        assert e1.rho_grid[0] == pytest.approx(0.1) and e1.rho_grid[-1] == pytest.approx(2.0)
        e2 = experiment_config(2)
        assert e2.distribution.kind == "bernoulli" and e2.p_offdiag == 0.2
        assert len(e2.rho_grid) == 10 and e2.rho_grid[-1] == pytest.approx(1.0)
        e3 = experiment_config(3)
        assert e3.distribution.kind == "poisson"
        assert e3.rho_grid[0] == pytest.approx(0.2) and e3.rho_grid[-1] == pytest.approx(2.0)
        e4 = experiment_config(4)
        assert e4.distribution.kind == "signed" and e4.p_offdiag == -0.2

    def test_membership_layout(self):
        cfg = experiment_config(2)
        Pi = cfg.membership()
        assert Pi.shape == (400, 3)
        assert np.array_equal(Pi[0], [1, 0, 0])
        assert np.allclose(Pi[120], [0.1, 0.1, 0.8])
        assert np.allclose(Pi[-1], [1 / 3, 1 / 3, 1 / 3])

    def test_json_round_trip(self):
        cfg = experiment_config(4, replicates=3, master_seed=9)
        back = ExperimentConfig.from_json(cfg.to_json())
        assert back == cfg

    @pytest.mark.parametrize("cfg", [
        *(experiment_config(e) for e in (1, 2, 3, 4)), *(setup_config(s) for s in (1, 2, 3, 4)),
    ], ids=[*(f"experiment{e}" for e in (1, 2, 3, 4)), *(f"setup{s}" for s in (1, 2, 3, 4))])
    def test_json_writes_the_distribution_as_kind_and_variance(self, cfg):
        written = json.loads(cfg.to_json())["distribution"]
        dist = cfg.distribution
        assert written == ({"kind": "normal", "variance": dist.variance} if dist.kind == "normal"
                           else {"kind": dist.kind})
        assert ExperimentConfig.from_json(cfg.to_json()) == cfg

    # the CLI's bad-input test covers the other one-field edits
    @pytest.mark.parametrize("field, value, message", [
        ("n", True, "n must be an integer, got True"),
        ("master_seed", -1, "master_seed must be >= 0, got -1"),
        ("rho_grid", ["1"], "rho grid must be nonempty, finite and positive"),
        ("distribution", {"kind": "normal", "varience": 2.0}, "distribution must be an object"),
        ("distribution", {"kind": "normal"}, "normal edge distribution needs a finite "
                                             "nonnegative variance"),
        ("distribution", {"kind": "normal", "variance": "2"}, "needs a finite nonnegative"),
        ("distribution", {"kind": "normal", "variance": float("nan")}, "needs a finite"),
        ("distribution", {"kind": "bernoulli", "variance": 1.0}, "takes no variance parameter"),
        ("distribution", {"kind": "gamma"}, "unknown distribution 'gamma'"),
        ("mixed_profiles", [[p, 14.5 if p[2] == 0.8 else 14] for p in EXPERIMENT_PROFILES],
         "mixed profile (0.1, 0.1, 0.8) has count 14.5; counts must be non-negative integers"),
        ("mixed_profiles", [[[0.5, 0.5], 14]] + [[p, 14] for p in EXPERIMENT_PROFILES[1:]],
         "mixed profile must be a finite 3-vector, got [0.5, 0.5]"),
        ("mixed_profiles", [[[0.1, "0.1", 0.8], 14]] + [[p, 14] for p in EXPERIMENT_PROFILES[1:]],
         "mixed profile must be a finite 3-vector, got [0.1, '0.1', 0.8]"),
        ("p_offdiag", "0.2", "p_offdiag must be a finite real number, got '0.2'"),
        ("p_offdiag", float("inf"), "p_offdiag must be a finite real number, got inf"),
        ("theta_rule", "bogus", "theta_rule must be one of ('uniform_half', 'linear_ramp'), "
                                "got 'bogus'"),
    ], ids=["bool-n", "negative-seed", "string-rho", "misspelt-variance", "normal-no-variance",
            "string-variance", "nan-variance", "bernoulli-variance", "unknown-kind",
            "fractional-count", "short-profile", "string-profile-entry", "string-p-offdiag",
            "infinite-p-offdiag", "unknown-theta-rule"])
    def test_json_field_fails_at_load_by_name(self, field, value, message):
        raw = json.loads(experiment_config(2, n=80, n0=8, replicates=2).to_json())
        raw[field] = value
        with pytest.raises(ValueError, match=re.escape(message)):
            ExperimentConfig.from_json(json.dumps(raw))

    def test_numpy_integers_are_python_integers(self):
        cfg = tiny_config(n=np.int64(36), replicates=np.int32(2), master_seed=np.uint64(7))
        assert cfg == tiny_config() and {type(v) for v in (cfg.n, cfg.replicates)} == {int}
        assert ExperimentConfig.from_json(cfg.to_json()) == cfg

    def test_distribution_must_be_an_edge_distribution(self):
        with pytest.raises(ValueError, match="^distribution must be an EdgeDistribution, got "):
            tiny_config(distribution={"kind": "bernoulli"})

    @pytest.mark.parametrize("drop, add, message", [
        (["mixed_profiles"], {}, "missing field(s): mixed_profiles"),
        (["rho_grid", "n"], {}, "missing field(s): n, rho_grid"),
        ([], {"bogus": 1, "extra": 2}, "unknown field(s): bogus, extra"),
    ], ids=["missing", "two-missing", "unknown"])
    def test_json_names_missing_or_unknown_fields(self, drop, add, message):
        raw = json.loads(experiment_config(2).to_json())
        for key in drop:
            del raw[key]
        raw.update(add)
        with pytest.raises(ValueError, match=re.escape(message)):
            ExperimentConfig.from_json(json.dumps(raw))

    def test_unknown_method_rejected_at_construction(self):
        with pytest.raises(ValueError, match=r"unknown method\(s\) 'bogus';"):
            tiny_config(methods=("scd", "bogus"))
        raw = json.loads(tiny_config().to_json())
        raw["methods"] = "scd"  # a string, not a list: iterates as 's', 'c', 'd'
        with pytest.raises(ValueError, match=r"unknown method\(s\) 's', 'c', 'd';"):
            ExperimentConfig.from_json(json.dumps(raw))

    @pytest.mark.parametrize("methods, message", [
        ([], "^methods must name at least one method$"),
        (["scd", "scd"], r"^method\(s\) 'scd' listed more than once$"),
        (["dfsp", "scd", "dfsp", "scd"], r"^method\(s\) 'dfsp', 'scd' listed more than once$"),
    ], ids=["empty", "repeated", "two-repeated"])
    def test_empty_or_repeated_methods_rejected_at_load(self, methods, message):
        raw = json.loads(tiny_config().to_json())
        raw["methods"] = methods
        with pytest.raises(ValueError, match=message):
            ExperimentConfig.from_json(json.dumps(raw))
        with pytest.raises(ValueError, match=message):
            tiny_config(methods=tuple(methods))

    def test_bad_id(self):
        with pytest.raises(ValueError):
            experiment_config(5)

    @pytest.mark.parametrize("kwargs,message", [
        (dict(exp_id=5), "experiment id must be 1, 2, 3 or 4"),
        (dict(exp_id=1, n=130, n0=40),
         "n=130 does not split into 3*40 pure plus 4 equal mixed groups"),
    ], ids=["bad-id", "uneven-mixed-groups"])
    def test_bad_arguments(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            experiment_config(**kwargs)

    def test_n_below_the_pure_rows(self):
        # n - 3*n0 = -20 splits into four groups of -5
        with pytest.raises(ValueError, match=re.escape("n=100 is below the 3*40 = 120 pure rows")):
            experiment_config(1, n=100, n0=40)
        Pi = experiment_config(1, n=120, n0=40).membership()
        assert np.array_equal(Pi, np.repeat(np.eye(3), 40, axis=0))

    def test_negative_count_from_json_rejected(self):
        raw = json.loads(tiny_config().to_json())
        raw["mixed_profiles"] = [[[0.6, 0.4], 14], [[0.5, 0.5], -2]]  # still 36 rows
        with pytest.raises(ValueError, match=re.escape("mixed profile (0.5, 0.5) has count -2")):
            ExperimentConfig.from_json(json.dumps(raw))


class TestSetups:
    @pytest.mark.parametrize("setup_id,n,n0,kind", [
        (1, 16, 6, "normal"), (2, 30, 10, "bernoulli"),
        (3, 24, 8, "poisson"), (4, 30, 12, "signed"),
    ])
    def test_parameters(self, setup_id, n, n0, kind):
        cfg = setup_config(setup_id)
        Pi = cfg.membership()
        assert Pi.shape == (n, 2)
        assert np.array_equal(Pi[n0 - 1], [1, 0])
        assert np.allclose(Pi[2 * n0:], [0.7, 0.3])
        assert cfg.distribution.kind == kind
        assert cfg.theta_rule == "linear_ramp"
        assert cfg.rho_grid == [harness.SETUP_PARAMS[setup_id]["rho"]]

    def test_noiseless_override_recovers(self):
        # zero variance with self loops kept: the draw is the expectation
        cfg = dataclasses.replace(setup_config(1), replicates=1, keep_self_loops=True,
                                  distribution=EdgeDistribution("normal", 0.0))
        sweep = run_sweep(cfg)
        assert sweep.table[("scd", cfg.rho_grid[0])]["mean"] <= 1e-6

    def test_single_draw_runs_both_methods(self):
        errors = run_setup_replicates(2, reps=1, master_seed=1)
        assert set(errors) == {"scd", "dfsp"}
        assert 0 <= errors["scd"][0] <= 2

    def test_replicates_shape_and_determinism(self):
        a = run_setup_replicates(3, reps=3, master_seed=5)
        b = run_setup_replicates(3, reps=3, master_seed=5)
        assert np.array_equal(a["scd"], b["scd"])
        assert a["scd"].shape == (3,)

    def test_consecutive_seeds_share_no_draw(self):
        # draws are seeded as a sweep's, from (master seed, 0, draw index),
        # so seed 6 does not repeat seed 5's later draws
        a = run_setup_replicates(3, reps=4, master_seed=5)
        b = run_setup_replicates(3, reps=4, master_seed=6)
        for method in a:
            assert set(a[method]).isdisjoint(b[method])

    def test_draws_are_the_one_point_sweep(self):
        cfg = dataclasses.replace(setup_config(2), replicates=3, master_seed=4)
        errors = run_setup_replicates(2, reps=3, master_seed=4)
        sweep = run_sweep(cfg)
        for method in cfg.methods:
            assert errors[method].tolist() == sweep.table[(method, cfg.rho_grid[0])]["errors"]

    def test_failed_fit_leaves_its_draw_out(self, monkeypatch):
        cfg = dataclasses.replace(setup_config(3), replicates=3, master_seed=5)
        clean = run_setup_replicates(3, reps=3, master_seed=5)
        failing = sweep_draw(cfg, cfg.rho_grid[0], 1)[1]
        real_dfsp = estimators.ESTIMATORS["dfsp"]

        def fails_on_draw_one(A, K, seed=0, pair=None):
            if seed == failing:
                raise estimators.EstimationError("corner block is singular")
            return real_dfsp(A, K, seed=seed, pair=pair)

        monkeypatch.setitem(estimators.ESTIMATORS, "dfsp", fails_on_draw_one)
        errors = run_setup_replicates(3, reps=3, master_seed=5)
        assert np.array_equal(errors["scd"], clean["scd"])
        assert np.array_equal(errors["dfsp"], np.delete(clean["dfsp"], 1))

    def test_method_failing_on_every_draw_raises(self, monkeypatch):
        def always_fails(A, K, seed=0, pair=None):
            raise estimators.EstimationError("corner block is singular")

        monkeypatch.setitem(estimators.ESTIMATORS, "dfsp", always_fails)
        with pytest.raises(estimators.EstimationError,
                           match=f"^{re.escape('set-up 2: dfsp failed on all 3 replicates')}$"):
            run_setup_replicates(2, reps=3, master_seed=1)

    def test_bad_id(self):
        with pytest.raises(ValueError):
            setup_config(5)


class TestDirectionalEffects:
    @staticmethod
    def _mean_error(n, n0, p, reps=8, rho=0.6):
        cfg = ExperimentConfig(
            n=n, K=2, n0=n0, mixed_profiles=[((0.7, 0.3), n - 2 * n0)],
            p_offdiag=p, distribution=EdgeDistribution("bernoulli"),
            rho_grid=[rho], replicates=reps, methods=("scd",), master_seed=13)
        sweep = run_sweep(cfg)
        return sweep.table[("scd", rho)]["mean"]

    def test_doubling_n_decreases_error(self):
        small = self._mean_error(n=120, n0=40, p=0.2)
        large = self._mean_error(n=240, n0=80, p=0.2)
        assert large < small

    def test_flatter_block_matrix_increases_error(self):
        well_separated = self._mean_error(n=150, n0=50, p=0.2)
        near_flat = self._mean_error(n=150, n0=50, p=0.6)
        assert near_flat > well_separated


class TestScalingCheck:
    def test_report_fields_and_formula(self):
        cfg = tiny_config(distribution=EdgeDistribution("bernoulli"),
                          rho_grid=[0.5, 1.0], replicates=2)
        report = scaling_check(cfg)
        assert len(report.normalized) == len(report.rhos)
        for norm, mean, rho in zip(report.normalized, report.mean_errors, report.rhos):
            expected = mean * np.sqrt(rho * cfg.n) / np.sqrt(np.log(cfg.n))
            assert norm == pytest.approx(expected, abs=1e-12)
        assert report.flat == (report.spread_factor <= SCALING_FLATNESS_FACTOR)

    def test_rejects_unbounded_noise_families(self):
        with pytest.raises(ValueError, match="bernoulli"):
            scaling_check(tiny_config(distribution=EdgeDistribution("normal", 1.0)))
