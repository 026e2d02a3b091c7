"""Real-network ingestion, scree-based K suggestion, and labeled fits.

Three small readers cover the formats the usual public datasets ship in:
whitespace edge triplets, a minimal GML subset, and a minimal Pajek
subset. Each returns the same shape, ``(edges, nodes)``: edges are
``(u, v, weight)`` triples and nodes are the declared ``(id, label,
value-or-None)`` triples, empty for the whitespace format. The loader
then names the nodes, checks the weights, and produces a sparse (CSR)
symmetric matrix with zero diagonal and no stored zeros plus the node-id
map, as a ``LoadedNetwork``; its ``labels`` hold ground truth when the
file's node values carry it. The adjacency stays sparse through the fit's
and the scree's eigensolves, so their cost follows the edge count.

A fit is two steps: ``load_edge_list`` reads the file, and
``fit_network`` fits the loaded network. A caller with a sidecar label
file sets ``network.labels = load_labels(path, network.ids)`` in between.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from . import estimators as _estimators
from . import metrics as _metrics
from . import spectral as _spectral


class ParseError(ValueError):
    pass


@dataclass
class LoadedNetwork:
    adjacency: csr_matrix
    ids: list
    labels: np.ndarray | None = None
    dropped_self_loops: int = 0
    removed_nodes: int = 0

    @property
    def n(self):
        return self.adjacency.shape[0]


def _edges_whitespace(path):
    edges = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) not in (2, 3):
                raise ParseError(f"{path}:{lineno}: expected 'u v [weight]', got {line!r}")
            u, v = parts[0], parts[1]
            try:
                w = float(parts[2]) if len(parts) == 3 else 1.0
            except ValueError:
                raise ParseError(f"{path}:{lineno}: bad weight {parts[2]!r}")
            edges.append((u, v, w))
    return edges, []


_GML_TOKEN = re.compile(r'"[^"]*"|\[|\]|[^\s\[\]]+')


def _edges_gml(path):
    text = Path(path).read_text()
    tokens = _GML_TOKEN.findall(text)
    edges = []
    nodes = []
    i = 0

    def parse_block(start):
        depth = 0
        fields = {}
        j = start
        while j < len(tokens):
            tok = tokens[j]
            if tok == "[":
                depth += 1
            elif tok == "]":
                depth -= 1
                if depth == 0:
                    return fields, j
            elif depth == 1 and j + 1 < len(tokens) and tokens[j + 1] not in ("[", "]"):
                fields.setdefault(tok, tokens[j + 1].strip('"'))
                j += 1
            j += 1
        raise ParseError(f"{path}: unterminated block")

    while i < len(tokens):
        tok = tokens[i]
        if tok in ("node", "edge") and i + 1 < len(tokens) and tokens[i + 1] == "[":
            fields, i = parse_block(i + 1)
            if tok == "node":
                if "id" not in fields:
                    raise ParseError(f"{path}: node block without id")
                nodes.append((fields["id"], fields.get("label", fields["id"]),
                              fields.get("value")))
            else:
                if "source" not in fields or "target" not in fields:
                    raise ParseError(f"{path}: edge block without source/target")
                u, v = fields["source"], fields["target"]
                raw = fields.get("value", fields.get("weight", "1"))
                try:
                    w = float(raw)
                except ValueError:
                    raise ParseError(f"{path}: bad weight {raw!r} on edge {u!r}-{v!r}")
                edges.append((u, v, w))
        i += 1

    return edges, nodes


def _edges_pajek(path):
    edges = []
    nodes = []
    mode = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("%"):
                continue
            low = line.lower()
            if low.startswith("*vertices"):
                mode = "vertices"
                continue
            if low.startswith(("*edges", "*arcs")):
                mode = "edges"
                continue
            if mode == "vertices":
                m = re.match(r'(\d+)\s+"([^"]*)"', line) or re.match(r"(\d+)\s+(\S+)", line)
                nid, label = m.groups() if m else (line.split()[0],) * 2
                nodes.append((nid, label, None))
            elif mode == "edges":
                parts = line.split()
                if len(parts) < 2:
                    raise ParseError(f"{path}:{lineno}: bad edge line {line!r}")
                try:
                    w = float(parts[2]) if len(parts) > 2 else 1.0
                except ValueError:
                    raise ParseError(f"{path}:{lineno}: bad weight {parts[2]!r}")
                edges.append((parts[0], parts[1], w))
            else:
                raise ParseError(f"{path}:{lineno}: content before any *Vertices/*Edges section")
    return edges, nodes


_PARSERS = {"whitespace_triplets": _edges_whitespace, "gml_like": _edges_gml,
            "pajek_like": _edges_pajek}
FORMATS = tuple(_PARSERS)
SYMMETRIZE = ("strict", "or")


def load_edge_list(path, format="whitespace_triplets", symmetrize="strict",
                   largest_component=False, unweighted=False):
    """Parse an edge file into a symmetric zero-diagonal CSR matrix that
    stores no zeros (a zero weight is no edge).

    ``symmetrize="strict"`` merges reciprocal duplicates only when their
    weights agree (conflicts are errors); ``"or"`` treats the file as a
    directed unweighted graph and keeps an edge of weight 1 wherever either
    direction appears, whatever its weight. Self loops are dropped and
    counted; a repeated node id and a non-finite weight are each a
    ``ParseError``. ``largest_component``
    restricts to the biggest connected component (id map follows).
    """
    if format not in _PARSERS:
        raise ValueError(f"unknown format {format!r}; expected one of {FORMATS}")
    if symmetrize not in SYMMETRIZE:
        raise ValueError(f"unknown symmetrize {symmetrize!r}; expected one of {SYMMETRIZE}")
    edges, nodes = _PARSERS[format](path)
    declared = set()
    for nid, _, _ in nodes:
        if nid in declared:
            raise ParseError(f"{path}: node id {nid!r} declared twice")
        declared.add(nid)

    # prefer declared labels as node identities, but only when unique:
    # some public files carry duplicate labels under distinct ids
    label_list = [label for _, label, _ in nodes]
    use_labels = len(set(label_list)) == len(label_list)
    name = {nid: (label if use_labels else nid) for nid, label, _ in nodes}
    edges = [(name.get(u, u), name.get(v, v), w) for u, v, w in edges]
    values = {name[nid]: value for nid, _, value in nodes if value is not None}
    for u, v, w in edges:
        if not math.isfinite(w):
            raise ParseError(f"{path}: non-finite weight {w} on edge {u!r}-{v!r}")

    ids = [name[nid] for nid, _, _ in nodes]
    seen = set(ids)
    for u, v, _ in edges:
        for x in (u, v):
            if x not in seen:
                seen.add(x)
                ids.append(x)
    if len(ids) < 2:
        raise ParseError(f"{path}: fewer than 2 nodes")
    index = {x: i for i, x in enumerate(ids)}

    n = len(ids)
    have = {}
    self_loops = 0
    for u, v, w in edges:
        i, j = index[u], index[v]
        if i == j:
            self_loops += 1
            continue
        key = (min(i, j), max(i, j))
        if symmetrize == "or":
            have[key] = (1.0, None)
            continue
        if unweighted:
            w = 1.0
        if key in have:
            prev, prev_directed = have[key]
            if (i, j) == prev_directed:
                raise ParseError(f"{path}: duplicate edge between {u!r} and {v!r}")
            if abs(prev - w) > 1e-12:
                raise ParseError(
                    f"{path}: conflicting weights {prev} vs {w} for edge {u!r}-{v!r}")
            continue
        have[key] = (w, (i, j))
    A = _symmetric_csr(n, have)

    labels = None
    raw = [values.get(x) for x in ids]
    if values and all(r is not None for r in raw):
        labels = _number_labels(raw)

    removed = 0
    if largest_component:
        # ties keep the component with the lowest node index: csgraph
        # labels components in order of their first node
        _, comp = connected_components(A, directed=False)
        keep = np.flatnonzero(comp == np.argmax(np.bincount(comp)))
        removed = n - keep.size
        A = A[keep][:, keep]
        ids = [ids[i] for i in keep]
        if labels is not None:
            labels = labels[keep]

    return LoadedNetwork(adjacency=A, ids=ids, labels=labels,
                         dropped_self_loops=self_loops, removed_nodes=removed)


def _symmetric_csr(n, weights):
    """The n x n symmetric CSR matrix with ``weights[(i, j)][0]`` at (i, j)
    and (j, i) for each pair i < j. Zero weights are not stored: the
    component search would count a stored zero as an edge."""
    kept = [(key, w) for key, (w, _) in weights.items() if w != 0]
    ij = np.array([key for key, _ in kept], dtype=np.int64).reshape(-1, 2)
    w = np.array([w for _, w in kept], dtype=float)
    rows = np.concatenate([ij[:, 0], ij[:, 1]])
    cols = np.concatenate([ij[:, 1], ij[:, 0]])
    return csr_matrix((np.concatenate([w, w]), (rows, cols)), shape=(n, n))


def _number_labels(values):
    """1-based label numbers in (length, text) order, so "2" comes before "10"."""
    rank = {v: i + 1 for i, v in enumerate(sorted(set(values), key=lambda s: (len(s), s)))}
    return np.array([rank[v] for v in values], dtype=int)


def load_labels(path, ids):
    """Sidecar ground-truth labels: lines of 'id label'. Returns 1-based ints."""
    raw = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ParseError(f"{path}:{lineno}: expected 'id label'")
            raw[parts[0]] = parts[1]
    missing = [x for x in ids if str(x) not in raw]
    if missing:
        raise ParseError(f"{path}: missing labels for {len(missing)} nodes, e.g. {missing[:3]}")
    return _number_labels([raw[str(x)] for x in ids])


@dataclass
class ScreeReport:
    singular_values: np.ndarray
    suggested_k: int


def scree_report(A, m=15):
    """Top-m singular values plus the K suggested by the largest relative
    consecutive drop sigma_k / sigma_{k+1}. ``A`` is dense or scipy.sparse."""
    m = min(m, A.shape[0])
    if m < 2:
        raise ValueError(f"a scree report needs at least 2 singular values, got m={m}")
    sv = _spectral.top_singular_values(A, m)
    tiny = 1e-12 * sv[0]
    ratios = np.where(sv[1:] > tiny, sv[:-1] / np.maximum(sv[1:], tiny), np.inf)
    return ScreeReport(singular_values=sv, suggested_k=int(np.argmax(ratios)) + 1)


@dataclass
class FitReport:
    network: LoadedNetwork
    result: "_estimators.EstimationResult"
    home_base: np.ndarray
    highly_mixed: np.ndarray
    miscluster_count: int | None = None
    miscluster_rate: float | None = None
    label_l1_rate: float | None = None

    def write_csv(self, path):
        K = self.result.Pi_hat.shape[1]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "home_base", "highly_mixed"]
                            + [f"pi_{k + 1}" for k in range(K)])
            for i, node_id in enumerate(self.network.ids):
                writer.writerow([node_id, int(self.home_base[i]), int(self.highly_mixed[i])]
                                + [f"{x:.8g}" for x in self.result.Pi_hat[i]])

    def summary(self):
        out = {
            "n": self.network.n,
            "dropped_self_loops": self.network.dropped_self_loops,
            "removed_nodes": self.network.removed_nodes,
            "highly_mixed_count": int(self.highly_mixed.sum()),
            **self.result.summary(),
        }
        if self.miscluster_count is not None:
            out["miscluster_count"] = self.miscluster_count
            out["miscluster_rate"] = self.miscluster_rate
            out["label_l1_rate"] = self.label_l1_rate
        elif self.network.labels is not None:
            K = self.result.Pi_hat.shape[1]
            out["unscored"] = f"labels have {self.network.labels.max()} classes, K={K}"
        return out


def fit_network(network, K, method="scd", seed=0):
    """Fit a ``LoadedNetwork`` (from ``load_edge_list``), returning per-node
    labels, memberships, mixedness flags and, when ``network.labels`` holds
    ground truth with K classes, miscluster statistics (else the summary's
    ``unscored`` says why not). K must be at least 2, the least for which
    a membership can be highly mixed."""
    if K < 2:
        raise ValueError(f"K must be at least 2, got {K}")
    result = _estimators.estimate(method, network.adjacency, K, seed=seed)
    labels_hat = _metrics.home_base(result.Pi_hat)
    mixed = _metrics.highly_mixed(result.Pi_hat)
    report = FitReport(network=network, result=result, home_base=labels_hat,
                       highly_mixed=mixed)
    if network.labels is not None and network.labels.max() == K:
        count, _ = _metrics.miscluster_count(labels_hat, network.labels, K=K)
        onehot = np.zeros((network.n, K))
        onehot[np.arange(network.n), network.labels - 1] = 1.0
        report.miscluster_count = int(count)
        report.miscluster_rate = count / network.n
        report.label_l1_rate = _metrics.l1_error_rate(result.Pi_hat, onehot).l1_rate
    return report


def write_summary(report, path, scree=None):
    payload = report.summary()
    if scree is not None:
        payload["scree"] = {
            "singular_values": [float(s) for s in scree.singular_values],
            "suggested_k": scree.suggested_k,
        }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
