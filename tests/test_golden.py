"""Golden fit outputs.

``golden_fits.json`` holds the sha256 of ``memberships.csv`` and
``summary.json`` for four ``spectralmix fit --out`` runs, next to the
numpy, scipy and networkx versions they were made with and the seed
argument scipy's eigsh takes (``spectral._EIGSH_RNG``). A changed byte
fails the test. Under other versions it skips: their eigensolvers may
round differently, and networkx ships the karate and Les Miserables data.

A change that means to alter fit outputs rewrites the record with

    PYTHONPATH=src python tests/test_golden.py > tests/golden_fits.json
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import networkx
import numpy as np
import pytest
import scipy

from conftest import write_blogs
from spectralmix import spectral
from spectralmix.cli import main

RECORD = Path(__file__).resolve().parent / "golden_fits.json"


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


def test_fit_outputs_match_record(data_dir, tmp_path):
    record = json.loads(RECORD.read_text(encoding="utf-8"))
    if record["versions"] != versions():
        pytest.skip(f"golden fits recorded under {record['versions']}; "
                    f"installed: {versions()}")
    assert fit_hashes(data_dir, tmp_path) == record["fits"]


if __name__ == "__main__":
    from conftest import make_datasets

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        make_datasets.write_karate(work)
        make_datasets.write_lesmis(work)
        print(json.dumps({"versions": versions(), "fits": fit_hashes(work, work)}, indent=2))
