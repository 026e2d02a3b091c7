import csv
import dataclasses
import json
import re

import numpy as np
import pytest

from spectralmix import estimators, harness, model, spectral
from spectralmix.harness import (
    ExperimentConfig,
    experiment_config,
    run_setup_replicates,
    run_sweep,
    scaling_check,
    setup_config,
    spearman_rho_vs_error,
)


def tiny_config(**overrides):
    base = dict(
        n=36, K=2, n0=12,
        mixed_profiles=[((0.6, 0.4), 12)],
        p_offdiag=0.2,
        distribution={"kind": "normal", "variance": 0.0},
        rho_grid=[0.5, 1.0],
        theta_rule="uniform_half",
        replicates=2,
        methods=("scd", "dfsp"),
        master_seed=7,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestRunSweep:
    def test_noiseless_normal_is_exact(self):
        # zero-variance normal with self loops kept makes A coincide with the
        # expectation matrix, so the pipeline must recover exactly
        sweep = run_sweep(tiny_config(keep_self_loops=True))
        for rho in sweep.valid_grid():
            assert sweep.table[("scd", rho)]["mean"] <= 1e-6

    def test_reproducible_bitwise(self):
        a = run_sweep(tiny_config(distribution={"kind": "normal", "variance": 0.5}))
        b = run_sweep(tiny_config(distribution={"kind": "normal", "variance": 0.5}))
        for key in a.table:
            assert a.table[key]["errors"] == b.table[key]["errors"]

    def test_replicates_are_prefix_stable(self):
        # replicate seeds depend only on (master seed, grid index, replicate
        # index), so extending the replicate count preserves earlier draws
        short = run_sweep(tiny_config(distribution={"kind": "normal", "variance": 0.5},
                                      replicates=2))
        long = run_sweep(tiny_config(distribution={"kind": "normal", "variance": 0.5},
                                     replicates=4))
        for rho in short.valid_grid():
            assert long.table[("scd", rho)]["errors"][:2] == short.table[("scd", rho)]["errors"]

    def test_mean_is_arithmetic_average(self):
        sweep = run_sweep(tiny_config(distribution={"kind": "normal", "variance": 1.0},
                                      replicates=3))
        for key, cell in sweep.table.items():
            assert cell["mean"] == pytest.approx(np.mean(cell["errors"]), abs=1e-12)

    def test_support_violation_skips_point(self):
        cfg = tiny_config(distribution={"kind": "bernoulli"}, rho_grid=[0.5, 1.2])
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

    def test_linalg_failure_on_one_replicate(self, monkeypatch, tmp_path):
        cfg = tiny_config(distribution={"kind": "normal", "variance": 0.5}, replicates=3)
        clean = run_sweep(cfg)
        first = {harness._replicate_seeds(cfg.master_seed, (gi, 0))[2]
                 for gi in range(len(cfg.rho_grid))}
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
        cfg = tiny_config(distribution={"kind": "normal", "variance": 0.5}, replicates=3)
        clean = run_sweep(cfg)
        real_top_k_eigs = spectral.top_k_eigs
        calls = []

        def fails_on_replicate_zero(M, K):
            calls.append(None)
            if len(calls) % cfg.replicates == 1:  # replicate 0 of each grid point
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
        cfg = tiny_config(distribution={"kind": "normal", "variance": 0.5}, replicates=3)
        clean = run_sweep(cfg)
        real_sample_adjacency = model.sample_adjacency
        calls = []

        def zero_on_replicate_zero(omega, dist, **kwargs):
            calls.append(None)
            A = real_sample_adjacency(omega, dist, **kwargs)
            return np.zeros_like(A) if len(calls) % cfg.replicates == 1 else A

        monkeypatch.setattr(model, "sample_adjacency", zero_on_replicate_zero)
        sweep = run_sweep(cfg)
        assert sweep.valid_grid() == cfg.rho_grid
        for method in cfg.methods:
            for rho in cfg.rho_grid:
                cell = sweep.table[(method, rho)]
                assert cell["failures"] == 1 and cell["replicates"] == [1, 2]
                assert cell["errors"] == clean.table[(method, rho)]["errors"][1:]

    def test_one_eigensolve_per_replicate(self, monkeypatch):
        cfg = tiny_config(distribution={"kind": "normal", "variance": 0.5}, replicates=3)
        real_top_k_eigs = spectral.top_k_eigs
        calls = []

        def counted(M, K):
            calls.append(None)
            return real_top_k_eigs(M, K)

        monkeypatch.setattr(spectral, "top_k_eigs", counted)
        sweep = run_sweep(cfg)
        assert len(cfg.methods) == 2 and sweep.valid_grid() == cfg.rho_grid
        assert len(calls) == len(cfg.rho_grid) * cfg.replicates

    def test_bad_grid_rejected(self):
        with pytest.raises(ValueError):
            tiny_config(rho_grid=[])
        with pytest.raises(ValueError):
            tiny_config(rho_grid=[0.5, -1.0])
        with pytest.raises(ValueError):
            tiny_config(replicates=0)

    def test_csv_and_summary_outputs(self, tmp_path):
        sweep = run_sweep(tiny_config(distribution={"kind": "normal", "variance": 0.2}))
        csv_path = tmp_path / "sweep.csv"
        sweep.write_csv(csv_path)
        rows = list(csv.DictReader(csv_path.read_text().splitlines()))
        assert {r["method"] for r in rows} == {"scd", "dfsp"}
        assert len(rows) == 2 * 2 * 2  # methods x grid x replicates
        assert all(float(r["error"]) >= 0 for r in rows)
        json_path = tmp_path / "summary.json"
        sweep.write_summary(json_path)
        summary = json.loads(json_path.read_text())
        assert set(summary["methods"]) == {"scd", "dfsp"}


class TestExperimentConfigs:
    def test_grids_follow_the_four_families(self):
        e1 = experiment_config(1)
        assert e1.distribution["kind"] == "normal" and e1.p_offdiag == -0.2
        assert e1.rho_grid[0] == pytest.approx(0.1) and e1.rho_grid[-1] == pytest.approx(2.0)
        e2 = experiment_config(2)
        assert e2.distribution["kind"] == "bernoulli" and e2.p_offdiag == 0.2
        assert len(e2.rho_grid) == 10 and e2.rho_grid[-1] == pytest.approx(1.0)
        e3 = experiment_config(3)
        assert e3.distribution["kind"] == "poisson"
        assert e3.rho_grid[0] == pytest.approx(0.2) and e3.rho_grid[-1] == pytest.approx(2.0)
        e4 = experiment_config(4)
        assert e4.distribution["kind"] == "signed" and e4.p_offdiag == -0.2

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

    def test_bad_id(self):
        with pytest.raises(ValueError):
            experiment_config(5)


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
        assert cfg.edge_distribution().kind == kind
        assert cfg.theta_rule == "linear_ramp"
        assert cfg.rho_grid == [harness.SETUP_PARAMS[setup_id]["rho"]]

    def test_noiseless_override_recovers(self):
        # zero variance with self loops kept: the draw is the expectation
        cfg = dataclasses.replace(setup_config(1), replicates=1, keep_self_loops=True,
                                  distribution={"kind": "normal", "variance": 0.0})
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

    def test_bad_id(self):
        with pytest.raises(ValueError):
            setup_config(5)


class TestDirectionalEffects:
    @staticmethod
    def _mean_error(n, n0, p, reps=8, rho=0.6):
        cfg = ExperimentConfig(
            n=n, K=2, n0=n0, mixed_profiles=[((0.7, 0.3), n - 2 * n0)],
            p_offdiag=p, distribution={"kind": "bernoulli"},
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
        cfg = tiny_config(distribution={"kind": "bernoulli"},
                          rho_grid=[0.5, 1.0], replicates=2)
        report = scaling_check(cfg)
        assert len(report.normalized) == len(report.rhos)
        for norm, mean, rho in zip(report.normalized, report.mean_errors, report.rhos):
            expected = mean * np.sqrt(rho * cfg.n) / np.sqrt(np.log(cfg.n))
            assert norm == pytest.approx(expected, abs=1e-12)
        assert report.flat == (report.spread_factor <= harness.SCALING_FLATNESS_FACTOR)

    def test_rejects_unbounded_noise_families(self):
        with pytest.raises(ValueError, match="bernoulli"):
            scaling_check(tiny_config(distribution={"kind": "normal", "variance": 1.0}))


def test_spearman_helper():
    cfg = tiny_config(distribution={"kind": "normal", "variance": 0.0},
                      rho_grid=[0.5, 1.0, 1.5], replicates=1)
    sweep = run_sweep(cfg)
    corr = spearman_rho_vs_error(sweep, "scd")
    assert -1.0 <= corr <= 1.0
