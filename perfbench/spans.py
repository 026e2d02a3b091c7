"""Span tracing of spectralmix from outside the package.

A ``Tracer`` swaps selected module attributes for wrappers that record one
span per call: name, start, end, parent span and operation id. Nothing in
the package is edited; the wrappers are removed when the tracer's context
exits. Every wrapped attribute is looked up through its module at call
time by the package itself (``_model.sample_adjacency``, ``_spectral.top_k_eigs``,
a module-global ``spherical_kmeans``), which is what makes the swap visible.

``estimators.ESTIMATORS`` holds ``scd``/``dfsp`` by reference, so those two
are traced through ``estimators.estimate`` and named after its method.
"""

from __future__ import annotations

import functools
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from spectralmix import cli, corners, estimators, harness, metrics, model, netio, spectral

# (module, attribute); the span is named "<module>.<attribute>"
WRAPPED = [
    (harness, "run_sweep"),
    (model, "make_theta"),
    (model, "build_omega"),
    (model, "sample_adjacency"),
    (estimators, "estimate"),
    (spectral, "top_k_eigs"),
    (spectral, "row_normalize"),
    (spectral, "top_singular_values"),
    (corners, "svm_cone_corners"),
    (corners, "spherical_kmeans"),
    (corners, "spa_corners"),
    (metrics, "l1_error_rate"),
    (netio, "load_edge_list"),
    (netio, "fit_network"),
    (netio, "scree_report"),
    (cli, "main"),
]

OP_SPAN = "op"


class CheckFailed(Exception):
    """An output check failed; ``check`` names it."""

    def __init__(self, check, detail):
        super().__init__(f"{check}: {detail}")
        self.check = check


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    tags: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


def covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total, reach = 0.0, -np.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans):
    """Per span: its duration minus the part of it that child spans cover."""
    children = {}
    for i, s in enumerate(spans):
        if s.parent is not None:
            children.setdefault(s.parent, []).append(i)
    out = []
    for i, s in enumerate(spans):
        kids = [(max(spans[c].start, s.start), min(spans[c].end, s.end))
                for c in children.get(i, [])]
        out.append(s.duration - covered([k for k in kids if k[1] > k[0]]))
    return out


def corner_route(cs):
    """Which route ``svm_cone_corners`` took, read off its returned CornerSet.

    ``spa``: the greedy fallback, whose candidates are every usable row
    (finite margin) with all cluster labels zero; ``band``: the
    minimal-margin band of a pointed hull (minimum finite margin > 0);
    ``slice``: the lowest-margin slice taken when the hull is not pointed.
    """
    finite = np.isfinite(cs.margins)
    usable = np.flatnonzero(finite)
    labels = np.asarray(cs.cluster_assignments)
    if (np.array_equal(np.sort(np.asarray(cs.candidates)), usable)
            and labels.size and not labels.any()):
        return "spa"
    if finite.any() and cs.margins[finite].min() > 0:
        return "band"
    return "slice"


def check_estimate(result, n, K):
    """Raise CheckFailed unless an estimate is a valid n x K membership."""
    P = result.Pi_hat
    idx = np.asarray(result.corner_set.indices)
    problems = []
    if P.shape != (n, K):
        problems.append(f"shape {P.shape} != {(n, K)}")
    elif not np.all(np.isfinite(P)):
        problems.append("non-finite entries")
    else:
        if P.min() < 0:
            problems.append(f"negative entry {P.min():.3g}")
        dev = float(np.max(np.abs(P.sum(axis=1) - 1.0)))
        if dev > 1e-9:
            problems.append(f"row sums off by {dev:.3g}")
    if len(set(idx.tolist())) != K or idx.min() < 0 or idx.max() >= n:
        problems.append(f"corners {idx.tolist()} are not {K} distinct rows of {n}")
    if problems:
        raise CheckFailed("estimate_valid", f"{result.method}: " + "; ".join(problems))


class Tracer:
    """Records spans while active; use as a context manager."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = -1
        self._saved = []

    def __enter__(self):
        for mod, attr in WRAPPED:
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self._wrap(f"{mod.__name__.rsplit('.', 1)[-1]}.{attr}", original))
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()
        return False

    def _open(self, name):
        span = Span(name, time.perf_counter(), np.nan,
                    self._stack[-1] if self._stack else None, self._op)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    def operation(self, fn):
        """Run ``fn()`` as one operation under a root span; returns its result."""
        self._op += 1
        span = self._open(OP_SPAN)
        try:
            return fn()
        finally:
            self._close(span)

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            if name == "estimators.estimate":
                span.name = f"estimators.{args[0] if args else kwargs['method']}"
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.tags["raised"] = type(exc).__name__
                raise
            finally:
                self._close(span)
            # classification and checks run after the span closes, so their
            # cost lands in the parent's self time, not in the layer's
            if name == "corners.svm_cone_corners":
                span.tags["route"] = corner_route(result)
                span.tags["candidates"] = int(len(result.candidates))
            elif name == "spectral.top_k_eigs":
                span.tags["residual"] = float(result.residual)
            elif name == "estimators.estimate":
                A = args[1] if len(args) > 1 else kwargs["A"]
                K = args[2] if len(args) > 2 else kwargs["K"]
                check_estimate(result, np.shape(A)[0], K)
            return result
        return traced


def layer_metrics(spans, n_ops, untraced_s, traced_s):
    """Per-layer metrics of a traced run (times are seconds per operation)."""
    selfs = self_times(spans)
    by_name = {}
    for s, st in zip(spans, selfs):
        by_name.setdefault(s.name, []).append((s, st))

    def self_s(name):
        return sum(st for _, st in by_name.get(name, [])) / n_ops

    def count(name):
        return len(by_name.get(name, []))

    def p50(name):
        durations = [s.duration for s, _ in by_name.get(name, [])]
        return statistics.median(durations) if durations else 0.0

    searches = [s for s, _ in by_name.get("corners.svm_cone_corners", []) if "route" in s.tags]
    kmeans_in_search = sum(1 for s, _ in by_name.get("corners.spherical_kmeans", [])
                           if spans[s.parent].name == "corners.svm_cone_corners")
    replicates = count("model.sample_adjacency") or n_ops
    residuals = [s.tags["residual"] for s, _ in by_name.get("spectral.top_k_eigs", [])
                 if "residual" in s.tags]
    layer_self = sum(st for s, st in zip(spans, selfs) if s.name != OP_SPAN)

    out = {
        "spectral.top_k_eigs.self_s": (self_s("spectral.top_k_eigs"), "s"),
        "spectral.top_k_eigs.calls_per_replicate":
            (count("spectral.top_k_eigs") / replicates, "calls"),
        "spectral.residual.max": (max(residuals, default=0.0), "ratio"),
        "spectral.row_normalize.self_s": (self_s("spectral.row_normalize"), "s"),
        "spectral.top_singular_values.self_s": (self_s("spectral.top_singular_values"), "s"),
        "corners.svm_cone_corners.self_s": (self_s("corners.svm_cone_corners"), "s"),
        "corners.spherical_kmeans.self_s": (self_s("corners.spherical_kmeans"), "s"),
        "corners.spherical_kmeans.calls":
            (kmeans_in_search / len(searches) if searches else 0.0, "calls"),
        "corners.spa_corners.self_s": (self_s("corners.spa_corners"), "s"),
    }
    for route in ("band", "slice", "spa"):
        share = (sum(s.tags["route"] == route for s in searches) / len(searches)
                 if searches else 0.0)
        out[f"corners.route.{route}"] = (share, "ratio")
    out["corners.candidates.mean"] = (
        statistics.fmean(s.tags["candidates"] for s in searches) if searches else 0.0, "rows")
    for method in ("scd", "dfsp"):
        out[f"estimators.{method}.self_s"] = (self_s(f"estimators.{method}"), "s")
        out[f"estimators.{method}.p50_s"] = (p50(f"estimators.{method}"), "s")
    out["estimators.failed"] = (sum(1 for s in spans if s.name.startswith("estimators.")
                                    and "raised" in s.tags), "count")
    for name in ("model.make_theta", "model.build_omega", "model.sample_adjacency",
                 "metrics.l1_error_rate", "harness.run_sweep", "netio.load_edge_list",
                 "netio.fit_network", "netio.scree_report", "cli.main"):
        out[f"{name}.self_s"] = (self_s(name), "s")
    out["trace.overhead_frac"] = (traced_s / untraced_s - 1.0, "ratio")
    out["trace.self_sum_frac"] = (layer_self / untraced_s - 1.0, "ratio")
    return out
