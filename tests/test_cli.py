import csv
import json

import pytest

from spectralmix import harness
from spectralmix.cli import main


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


def test_setup_command(tmp_path, capsys):
    rc = main(["setup", "--id", "1", "--reps", "2", "--out", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "setup1.json").read_text())
    assert set(payload) == {"scd", "dfsp"}
    assert len(payload["scd"]["errors"]) == 2


def test_simulate_command(tmp_path):
    cfg = harness.ExperimentConfig(
        n=24, K=2, n0=8, mixed_profiles=[((0.5, 0.5), 8)], p_offdiag=0.2,
        distribution={"kind": "normal", "variance": 0.1}, rho_grid=[1.0],
        replicates=2, master_seed=3)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(cfg.to_json())
    rc = main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "run")])
    assert rc == 0
    rows = list(csv.DictReader((tmp_path / "run" / "sweep.csv").read_text().splitlines()))
    assert len(rows) == 4  # 2 methods x 1 grid point x 2 replicates
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    assert "scd" in summary["methods"]


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


# small edge files for the failure cases below: a 6-node graph whose K=4
# corner block is singular, and a graph whose every weight is zero
SMALL_FILES = {
    "six_nodes.tsv": "v0 v3\nv0 v4\nv0 v5\nv1 v2\nv1 v4\nv1 v5\nv2 v4\nv3 v5\n",
    "zero_weights.tsv": "a b 0\nc d 0\ne f 0\n",
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
], ids=["fit-k1", "scree-top1", "fit-missing-file", "simulate-missing-config", "setup-reps0",
        "fit-labels-missing-nodes", "fit-singular-corner-block", "fit-zero-weights",
        "scree-zero-weights"])
def test_bad_input_exits_2_with_one_line(data_dir, tmp_path, capsys, argv, message):
    for name, text in SMALL_FILES.items():
        (tmp_path / name).write_text(text)
    argv = [str((tmp_path if a in SMALL_FILES else data_dir) / a)
            if a.endswith((".tsv", ".json")) else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("spectralmix: error: ")
    assert message in err
