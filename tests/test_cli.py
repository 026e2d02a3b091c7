import csv
import dataclasses
import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spectralmix
from conftest import sweep_draw, write_blogs
from spectralmix import corners, estimators, harness
from spectralmix.cli import main
from spectralmix.model import EdgeDistribution


def test_scree_command(data_dir, capsys):
    assert main(["scree", "--file", str(data_dir / "karate.tsv"), "--top", "15"]) == 0
    out = capsys.readouterr().out
    assert "suggested K = 2" in out


def test_fit_command_writes_outputs(data_dir, tmp_path, capsys):
    rc = main(["fit", "--file", str(data_dir / "karate.tsv"), "--k", "2",
               "--method", "scd", "--labels", str(data_dir / "karate_labels.tsv"),
               "--out", str(tmp_path)])
    assert rc == 0
    rows = list(csv.DictReader((tmp_path / "memberships.csv").read_text().splitlines()))
    assert len(rows) == 34
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["n"] == 34
    assert "miscluster_count" in summary
    assert summary["scree"]["suggested_k"] == 2
    printed = json.loads(capsys.readouterr().out.split("\nwrote ")[0])
    assert summary == {**printed, "scree": summary["scree"]}
    assert list(summary) == [*printed, "scree"]


def test_setup_command(tmp_path, capsys):
    rc = main(["setup", "--id", "1", "--reps", "2", "--out", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "setup1.json").read_text())
    assert set(payload) == {"scd", "dfsp"}
    assert len(payload["scd"]["errors"]) == 2


def test_setup_reports_the_draws_it_scored(monkeypatch, capsys):
    cfg = dataclasses.replace(harness.setup_config(1), replicates=2, master_seed=0)
    failing = sweep_draw(cfg, cfg.rho_grid[0], 0)[1]
    real_dfsp = estimators.ESTIMATORS["dfsp"]

    def fails_on_draw_zero(A, K, seed=0, pair=None):
        if seed == failing:
            raise estimators.EstimationError("corner block is singular")
        return real_dfsp(A, K, seed=seed, pair=pair)

    monkeypatch.setitem(estimators.ESTIMATORS, "dfsp", fails_on_draw_zero)
    assert main(["setup", "--id", "1", "--reps", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("setup 1 scd:") and lines[0].endswith(", 2 draws)")
    assert lines[1].startswith("setup 1 dfsp:") and lines[1].endswith(", 1 draws)")


def test_simulate_command(tmp_path):
    cfg = harness.ExperimentConfig(
        n=24, K=2, n0=8, mixed_profiles=[((0.5, 0.5), 8)], p_offdiag=0.2,
        distribution=EdgeDistribution("normal", 0.1), rho_grid=[1.0],
        replicates=2, master_seed=3)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(cfg.to_json())
    rc = main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "run")])
    assert rc == 0
    rows = list(csv.DictReader((tmp_path / "run" / "sweep.csv").read_text().splitlines()))
    assert len(rows) == 4  # 2 methods x 1 grid point x 2 replicates
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    assert "scd" in summary["methods"]


def simulate(tmp_path, capsys, cfg, name, *extra):
    """Run ``spectralmix simulate`` on ``cfg``; returns its stdout, the rows
    of its sweep.csv without the timing column, and its summary.json."""
    cfg_path = tmp_path / f"{name}.json"
    cfg_path.write_text(cfg.to_json())
    out = tmp_path / name
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out), *extra]) == 0
    rows = [row[:-1] for row in csv.reader((out / "sweep.csv").read_text().splitlines())]
    return capsys.readouterr().out, rows, (out / "summary.json").read_text()


def test_simulate_seed_overrides_master_seed(tmp_path, capsys):
    cfg = harness.experiment_config(2, n=80, n0=8, replicates=2, master_seed=0)
    cfg.rho_grid = [0.5, 1.0]
    overridden = simulate(tmp_path, capsys, cfg, "overridden", "--seed", "5")[1:]
    unseeded = simulate(tmp_path, capsys, cfg, "unseeded")[1:]
    cfg.master_seed = 5
    seeded = simulate(tmp_path, capsys, cfg, "seeded")[1:]
    assert overridden == seeded
    assert overridden[0] != unseeded[0]


def test_simulate_reports_skipped_cell(tmp_path, capsys):
    # at rho = 1.2 the pure-pair bernoulli mean is 1.2**2 = 1.44 > 1
    cfg = harness.experiment_config(2, n=80, n0=8, replicates=2)
    cfg.rho_grid = [0.5, 1.2]
    stdout, rows, summary = simulate(tmp_path, capsys, cfg, "skipped")
    assert "skipped rho=1.2: bernoulli means would reach 1.44, outside [0, 1]\n" in stdout
    assert {row[1] for row in rows[1:]} == {"0.5"}
    assert json.loads(summary)["invalid"] == {"1.2": "bernoulli means would reach 1.44, "
                                                     "outside [0, 1]"}


def test_simulate_malformed_config_exits_2(tmp_path, capsys):
    raw = json.loads(harness.experiment_config(1, replicates=1).to_json())
    del raw["mixed_profiles"]
    raw["bogus"] = 1
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "run")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "missing field(s): mixed_profiles" in err


def run_fresh_python(code, *options):
    """stdout of ``code`` in a fresh process, started with the interpreter
    ``options`` and pointed at the package under test, so nothing this
    test session has imported counts."""
    src = Path(spectralmix.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.run([sys.executable, *options, "-c", code], capture_output=True,
                          text=True, env=env, check=True).stdout


def test_files_are_read_and_written_as_utf8(data_dir, tmp_path):
    # an open() without an encoding raises EncodingWarning, here an error
    write_blogs(tmp_path / "blogs.gml")
    cfg = harness.experiment_config(2, n=80, n0=8, replicates=2, master_seed=3)
    cfg.rho_grid = [0.5]
    (tmp_path / "sweep.json").write_text(cfg.to_json(), encoding="utf-8")
    runs = [
        ["fit", "--file", data_dir / "karate.tsv", "--k", "2",
         "--labels", data_dir / "karate_labels.tsv", "--out", tmp_path / "karate"],
        ["fit", "--file", tmp_path / "blogs.gml", "--format", "gml_like", "--symmetrize", "or",
         "--k", "2", "--out", tmp_path / "blogs"],
        ["scree", "--file", data_dir / "karate.tsv"],
        ["simulate", "--config", tmp_path / "sweep.json", "--out", tmp_path / "sweep"],
        ["setup", "--id", "1", "--reps", "2", "--out", tmp_path / "setup"],
    ]
    code = f"""if True:
        import contextlib, io
        from spectralmix.cli import main
        for argv in {[list(map(str, argv)) for argv in runs]!r}:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0
    """
    run_fresh_python(code, "-X", "warn_default_encoding", "-W", "error::EncodingWarning")
    for out in ("karate/summary.json", "blogs/memberships.csv", "sweep/sweep.csv",
                "setup/setup1.json"):
        assert (tmp_path / out).stat().st_size > 0


def test_cli_import_leaves_scipy_stats_unloaded():
    code = "import spectralmix.cli, sys; print('scipy.stats' in sys.modules)"
    assert run_fresh_python(code).strip() == "False"


def test_scipy_optimize_loads_only_for_assignment():
    # K <= 8 enumerates permutations; K = 9 is the first to import the
    # assignment solver, and it must match the enumeration
    code = """if True:
        import sys
        import numpy as np
        import spectralmix.cli
        from spectralmix.metrics import l1_error_rate
        loaded = lambda: 'scipy.optimize' in sys.modules
        rng = np.random.default_rng(0)
        print(loaded())
        l1_error_rate(rng.dirichlet(np.ones(8), size=10), rng.dirichlet(np.ones(8), size=10))
        print(loaded())
        Pi_hat, Pi = rng.dirichlet(np.ones(9), size=12), rng.dirichlet(np.ones(9), size=12)
        fast = l1_error_rate(Pi_hat, Pi)
        print(loaded())
        slow = l1_error_rate(Pi_hat, Pi, exhaustive=True)
        print(fast.best_permutation == slow.best_permutation,
              abs(fast.l1_rate - slow.l1_rate) <= 1e-12)
    """
    assert run_fresh_python(code).split() == ["False", "False", "True", "True", "True"]


def test_margin_solve_at_its_step_bound_exits_2(data_dir, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(corners, "_nnls", functools.partial(corners._nnls, maxiter=1))
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--file", str(data_dir / "karate.tsv"), "--k", "2",
              "--out", str(tmp_path / "fit")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "the margin solve did not converge in 1 least-squares steps" in err


def edited_config(**fields):
    """A small sweep config's JSON with ``fields`` replaced."""
    raw = json.loads(harness.experiment_config(2, n=80, n0=8, replicates=2).to_json())
    return json.dumps({**raw, **fields})


# small input files for the failure cases below: a 6-node graph whose K=4
# corner block is singular, a graph whose every weight is zero, and sweep
# configs with one malformed field
SMALL_FILES = {
    "six_nodes.tsv": "v0 v3\nv0 v4\nv0 v5\nv1 v2\nv1 v4\nv1 v5\nv2 v4\nv3 v5\n",
    "zero_weights.tsv": "a b 0\nc d 0\ne f 0\n",
    "bogus_method.json": edited_config(methods=["scd", "bogus"]),
    "no_methods.json": edited_config(methods=[]),
    "repeated_method.json": edited_config(methods=["scd", "scd"]),
    "float_replicates.json": edited_config(replicates=2.5),
    "float_k.json": edited_config(K=3.0),
    "empty_distribution.json": edited_config(distribution={}),
    "string_distribution.json": edited_config(distribution="bernoulli"),
    "float_seed.json": edited_config(master_seed=2.5),
    "string_self_loops.json": edited_config(keep_self_loops="no"),
    "nan_rho.json": edited_config(rho_grid=[float("nan")]),
    "infinite_rho.json": edited_config(rho_grid=[float("inf")]),
}


@pytest.mark.parametrize("argv, message", [
    (["fit", "--file", "karate.tsv", "--k", "1"], "K must be at least 2"),
    (["scree", "--file", "karate.tsv", "--top", "1"], "at least 2 singular values"),
    (["fit", "--file", "missing.tsv", "--k", "2"], "No such file or directory"),
    (["simulate", "--config", "missing.json"], "No such file or directory"),
    (["setup", "--id", "1", "--reps", "0"], "reps must be >= 1"),
    (["fit", "--file", "lesmis.tsv", "--k", "2", "--labels", "karate_labels.tsv"],
     "missing labels for 77 nodes"),
    (["fit", "--file", "six_nodes.tsv", "--k", "4"], "corner block is numerically singular"),
    (["fit", "--file", "zero_weights.tsv", "--k", "2"], "matrix is all zero"),
    (["scree", "--file", "zero_weights.tsv"], "matrix is all zero"),
    (["simulate", "--config", "bogus_method.json"], "unknown method(s) 'bogus'"),
    (["simulate", "--config", "no_methods.json"], "methods must name at least one method"),
    (["simulate", "--config", "repeated_method.json"],
     "method(s) 'scd' listed more than once"),
    (["simulate", "--config", "float_replicates.json"], "replicates must be an integer, got 2.5"),
    (["simulate", "--config", "float_k.json"], "K must be an integer, got 3.0"),
    (["simulate", "--config", "empty_distribution.json"],
     "distribution must be an object of kind and optional variance, got {}"),
    (["simulate", "--config", "string_distribution.json"],
     'distribution must be an object of kind and optional variance, got "bernoulli"'),
    (["simulate", "--config", "float_seed.json"], "master_seed must be an integer, got 2.5"),
    (["simulate", "--config", "string_self_loops.json"],
     "keep_self_loops must be true or false, got 'no'"),
    (["simulate", "--config", "nan_rho.json"], "rho grid must be nonempty, finite and positive"),
    (["simulate", "--config", "infinite_rho.json"],
     "rho grid must be nonempty, finite and positive"),
], ids=["fit-k1", "scree-top1", "fit-missing-file", "simulate-missing-config", "setup-reps0",
        "fit-labels-missing-nodes", "fit-singular-corner-block", "fit-zero-weights",
        "scree-zero-weights", "simulate-unknown-method", "simulate-no-methods",
        "simulate-repeated-method", "simulate-float-replicates",
        "simulate-float-k", "simulate-empty-distribution", "simulate-string-distribution",
        "simulate-float-seed", "simulate-string-self-loops", "simulate-nan-rho",
        "simulate-infinite-rho"])
def test_bad_input_exits_2_with_one_line(data_dir, tmp_path, capsys, argv, message):
    for name, text in SMALL_FILES.items():
        (tmp_path / name).write_text(text)
    argv = [str((tmp_path if a in SMALL_FILES else data_dir) / a)
            if a.endswith((".tsv", ".json")) else a for a in argv]
    if argv[0] in ("simulate", "setup"):  # a config that loads must not write into the cwd
        argv += ["--out", str(tmp_path / "out")]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("spectralmix: error: ")
    assert message in err
