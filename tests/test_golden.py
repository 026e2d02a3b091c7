"""Golden fit outputs and sweep tables.

``golden_fits.json`` holds the sha256 of ``memberships.csv`` and
``summary.json`` for four ``spectralmix fit --out`` runs.
``golden_sweeps.json`` holds the sha256 of the experiment 1-4 tables at 5
replicates and master seed 11 (every field but ``seconds``, and the
invalid points) and of the set-up 1-4 error arrays at their defaults.
Each record sits next to the numpy, scipy and networkx versions it was
made with and the seed argument scipy's eigsh takes
(``spectral._EIGSH_RNG``). A changed byte fails the test. Under other
versions it skips: their eigensolvers and samplers may round
differently, and networkx ships the karate and Les Miserables data.

A change that means to alter fit outputs or sweep tables rewrites the
record with

    PYTHONPATH=src python tests/test_golden.py fits > tests/golden_fits.json
    PYTHONPATH=src python tests/test_golden.py sweeps > tests/golden_sweeps.json
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import networkx
import numpy as np
import pytest
import scipy

from conftest import write_blogs
from spectralmix import spectral
from spectralmix.cli import main
from spectralmix.harness import experiment_config, run_setup_replicates, run_sweep

HERE = Path(__file__).resolve().parent


def versions():
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "networkx": networkx.__version__, "eigsh_rng": spectral._EIGSH_RNG}


def write_pajek(tsv, path):
    """A whitespace edge file as Pajek: vertices numbered in order of first
    appearance, each with its name as a quoted label."""
    edges = [line.split() for line in tsv.read_text(encoding="utf-8").splitlines()]
    number = {}
    for u, v, _ in edges:
        for x in (u, v):
            number.setdefault(x, len(number) + 1)
    path.write_text(f"*Vertices {len(number)}\n"
                    + "".join(f'{k} "{x}"\n' for x, k in number.items())
                    + "*Edges\n"
                    + "".join(f"{number[u]} {number[v]} {w}\n" for u, v, w in edges),
                    encoding="utf-8")


def fit_hashes(data_dir, work):
    """``{run: {file: sha256}}`` for the four golden fits, written under ``work``."""
    write_pajek(data_dir / "lesmis.tsv", work / "lesmis.net")
    write_blogs(work / "blogs.gml")
    runs = {
        "karate": ["--file", data_dir / "karate.tsv", "--k", "2",
                   "--labels", data_dir / "karate_labels.tsv"],
        "lesmis": ["--file", data_dir / "lesmis.tsv", "--k", "3"],
        "lesmis_pajek": ["--file", work / "lesmis.net", "--format", "pajek_like", "--k", "3"],
        "blogs_gml": ["--file", work / "blogs.gml", "--format", "gml_like",
                      "--symmetrize", "or", "--largest-component", "--k", "2"],
    }
    hashes = {}
    for name, args in runs.items():
        out = work / name
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["fit", *map(str, args), "--out", str(out)]) == 0
        hashes[name] = {f: hashlib.sha256((out / f).read_bytes()).hexdigest()
                        for f in ("memberships.csv", "summary.json")}
    return hashes


def sha256_json(value):
    """The sha256 of ``value`` as JSON; a float is written as its repr, so
    equal hashes mean bit-equal floats."""
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


def sweep_hashes():
    """``{name: sha256}`` for the experiment 1-4 tables and the set-up 1-4 arrays."""
    hashes = {}
    for exp_id in (1, 2, 3, 4):
        sweep = run_sweep(experiment_config(exp_id, replicates=5, master_seed=11))
        cells = [[method, rho, {k: v for k, v in cell.items() if k != "seconds"}]
                 for (method, rho), cell in sweep.table.items()]
        invalid = {str(rho): reason for rho, reason in sweep.invalid.items()}
        hashes[f"experiment{exp_id}"] = sha256_json({"table": cells, "invalid": invalid})
    for setup_id in (1, 2, 3, 4):
        arrays = run_setup_replicates(setup_id)
        hashes[f"setup{setup_id}"] = sha256_json({m: a.tolist() for m, a in arrays.items()})
    return hashes


def recorded(kind):
    """The hashes in ``golden_<kind>.json``; skips when they were made
    under other versions."""
    record = json.loads((HERE / f"golden_{kind}.json").read_text(encoding="utf-8"))
    if record["versions"] != versions():
        pytest.skip(f"golden {kind} recorded under {record['versions']}; "
                    f"installed: {versions()}")
    return record[kind]


def test_fit_outputs_match_record(data_dir, tmp_path):
    assert fit_hashes(data_dir, tmp_path) == recorded("fits")


def test_sweep_tables_match_record():
    assert sweep_hashes() == recorded("sweeps")


if __name__ == "__main__":
    if sys.argv[1:] == ["fits"]:
        from conftest import make_datasets

        with tempfile.TemporaryDirectory() as tmp:
            work = Path(tmp)
            make_datasets.write_karate(work)
            make_datasets.write_lesmis(work)
            record = {"versions": versions(), "fits": fit_hashes(work, work)}
    elif sys.argv[1:] == ["sweeps"]:
        record = {"versions": versions(), "sweeps": sweep_hashes()}
    else:
        sys.exit("usage: python tests/test_golden.py fits|sweeps")
    print(json.dumps(record, indent=2))
