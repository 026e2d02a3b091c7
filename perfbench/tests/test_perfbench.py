"""Tests of the benchmark itself: span arithmetic, the corner-route
classifier, and a tiny-size run of every workload.

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
from spectralmix.corners import CornerSet  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def span(name, start, end, parent=None):
    return spans.Span(name, start, end, parent, 0)


def test_self_time_of_nested_spans():
    tree = [
        span("op", 0.0, 10.0),
        span("a", 1.0, 4.0, parent=0),
        span("a.inner", 2.0, 3.0, parent=1),
        span("b", 5.0, 9.0, parent=0),
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 1.0, 4.0])
    assert sum(spans.self_times(tree)) == pytest.approx(tree[0].duration)


def test_self_time_counts_overlapping_children_once():
    tree = [span("op", 0.0, 10.0), span("a", 1.0, 4.0, 0), span("b", 3.0, 6.0, 0),
            span("c", 8.0, 12.0, 0)]  # c runs past its parent: only 8..10 counts
    assert spans.self_times(tree)[0] == pytest.approx(10.0 - 5.0 - 2.0)


def test_layer_metrics_are_per_operation():
    tree = [span("op", 0.0, 4.0), span("spectral.top_k_eigs", 1.0, 3.0, 0)]
    tree.append(spans.Span("op", 4.0, 6.0, None, 1))
    tree.append(spans.Span("spectral.top_k_eigs", 4.0, 5.0, 2, 1))
    layers = spans.layer_metrics(tree, n_ops=2, untraced_s=5.0, traced_s=6.0)
    assert layers["spectral.top_k_eigs.self_s"][0] == pytest.approx(1.5)
    assert layers["trace.overhead_frac"][0] == pytest.approx(0.2)
    assert layers["trace.self_sum_frac"][0] == pytest.approx(3.0 / 5.0 - 1.0)


def make_corner_set(margins, candidates, labels, indices=(0, 1)):
    return CornerSet(indices=np.array(indices), margins=np.array(margins, dtype=float),
                     candidates=np.array(candidates), cluster_assignments=np.array(labels))


def test_route_spa_is_every_usable_row_with_zero_labels():
    cs = make_corner_set([0.5, 0.7, np.inf, 0.9], [0, 1, 3], [0, 0, 0])
    assert spans.corner_route(cs) == "spa"
    # SPA is read off the candidates, not the margins: negative margins too
    cs = make_corner_set([-0.5, 0.7, 0.9], [0, 1, 2], [0, 0, 0])
    assert spans.corner_route(cs) == "spa"


def test_route_band_needs_positive_minimum_margin():
    assert spans.corner_route(make_corner_set([0.5, 0.7, 0.9, 1.2], [0, 1], [0, 1])) == "band"
    # candidates widened to every row, but k-means found two clusters
    assert spans.corner_route(make_corner_set([0.5, 0.7, 0.9], [0, 1, 2], [0, 1, 1])) == "band"
    assert spans.corner_route(make_corner_set([0.5, np.inf, 0.9], [0, 2], [1, 0])) == "band"


def test_route_slice_when_hull_not_pointed():
    assert spans.corner_route(make_corner_set([-0.1, 0.2, 0.3, 0.4], [0, 1], [0, 1])) == "slice"
    assert spans.corner_route(make_corner_set([0.0, 0.2, 0.3], [0, 1], [0, 1])) == "slice"


def test_check_estimate_names_the_problem():
    class Result:
        method = "scd"
        Pi_hat = np.array([[0.5, 0.5], [1.0, 0.0], [0.2, 0.9]])
        corner_set = make_corner_set([1.0, 1.0, 1.0], [0, 1], [0, 1], indices=(1, 1))

    with pytest.raises(spans.CheckFailed, match="row sums.*corners"):
        spans.check_estimate(Result, 3, 2)


@pytest.mark.parametrize("name", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_of_every_workload(name, trace, tmp_path):
    wl = worker.set_up(name, seed=3, workdir=tmp_path, size="tiny")
    res = worker.measure(wl, seconds=0.2, trace=trace)
    assert res["attempted"] >= 1 and res["failed"] == 0 and res["raised"] == 0
    if trace:
        assert set(res["layers"]) == {m["name"] for m in BENCHMARK["per_layer"]}
        assert res["layers"]["estimators.failed"][0] == 0
    else:
        assert 0 <= res["l1"]["scd"] <= 2
        assert len(res["op_s"]) == res["ops"] >= 1


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = subprocess.run(BENCHMARK["command"] + ["--workload", "file_gml", "--seed", "1",
                                                  "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
