"""Real-network ingestion, scree-based K suggestion, and labeled fits.

Three small readers cover the formats the usual public datasets ship in:
whitespace edge triplets, a minimal GML subset, and a minimal Pajek
subset. Each returns the same columns, ``(us, vs, ws), (ids, labels,
values)``: the edges' endpoints and weights, and the declared nodes'
ids, labels and values (``None`` where a node has none), the node
columns empty for the whitespace format. Columns hold only strings and
floats, which the garbage collector does not track, so a load builds no
container per edge or node and gives the collector no reason to run,
however large the file. The GML reader splits the text on double quotes,
so a quoted string is one token whatever it holds, splits the rest on
whitespace and brackets, and walks the tokens once. The loader then
names the nodes, checks the weights, and merges the edges with a stable
sort on their node pairs into a sparse (CSR) symmetric matrix with zero
diagonal and no stored zeros plus the node-id map, as a
``LoadedNetwork``; a merge error names the earliest offending edge in
the file. The network's ``labels`` hold ground truth when the file's
node values carry it. The adjacency stays sparse through the fit's and
the scree's eigensolves, so their cost follows the edge count.

A fit is two steps: ``load_edge_list`` reads the file, and
``fit_network`` fits the loaded network. A caller with a sidecar label
file sets ``network.labels = load_labels(path, network.ids)`` in between.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass
from itertools import chain
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


def _data_lines(fh, comment):
    """``(line number, stripped line)`` for each line of ``fh`` that is
    neither blank nor starts with ``comment``."""
    for lineno, line in enumerate(fh, 1):
        line = line.strip()
        if line and not line.startswith(comment):
            yield lineno, line


def _weight(path, lineno, parts):
    """An edge line's third field as its weight; 1.0 when there is none."""
    if len(parts) < 3:
        return 1.0
    try:
        return float(parts[2])
    except ValueError:
        raise ParseError(f"{path}:{lineno}: bad weight {parts[2]!r}")


def _edges_whitespace(path):
    us, vs, ws = [], [], []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in _data_lines(fh, "#"):
            parts = line.split()
            if len(parts) not in (2, 3):
                raise ParseError(f"{path}:{lineno}: expected 'u v [weight]', got {line!r}")
            us.append(parts[0])
            vs.append(parts[1])
            ws.append(_weight(path, lineno, parts))
    return (us, vs, ws), ([], [], [])


def _edges_gml(path):
    """Nodes and edges of a GML file, read in one pass over its tokens.

    The tokens are ``[``, ``]``, quoted strings, kept whole with their
    quotes, and the whitespace-separated words between them. A quote
    always starts or ends a token, so ``abc"def"`` is two tokens, and an
    odd number of quotes is a ``ParseError``. A ``node`` or ``edge`` block
    opens on the ``[`` right after that word, wherever it appears outside
    another node or edge block. Inside it, depth-1 fields come as ``key
    value`` pairs, read two tokens at a time, and the first occurrence of
    a key wins; a bracket after a key drops the key, and deeper blocks
    (``graphics [ ... ]``) are skipped. Only the fields the loader uses
    are kept: ``id``, ``label`` and ``value`` of a node, and ``source``,
    ``target``, ``value`` and ``weight`` of an edge.
    """
    parts = Path(path).read_text(encoding="utf-8").split('"')
    if len(parts) % 2 == 0:
        raise ParseError(f"{path}: unbalanced quote")
    tokens = chain.from_iterable(
        [f'"{part}"'] if k % 2 else part.replace("[", " [ ").replace("]", " ] ").split()
        for k, part in enumerate(parts))
    us, vs, ws = [], [], []
    ids, labels, values = [], [], []
    edge = None  # True in an edge block, False in a node block, None outside both
    prev = None
    for tok in tokens:
        if edge is None:
            if tok == "[" and (prev == "edge" or prev == "node"):
                edge, depth = prev == "edge", 1
                # id or source, label or target, value, weight
                a = b = value = weight = None
            prev = tok
            continue
        if depth == 1 and tok != "[" and tok != "]":
            key, tok = tok, next(tokens, None)
            if tok is None:
                break
            if tok != "[" and tok != "]":
                if key == ("source" if edge else "id"):
                    if a is None:
                        a = tok.strip('"')
                elif key == ("target" if edge else "label"):
                    if b is None:
                        b = tok.strip('"')
                elif key == "value":
                    if value is None:
                        value = tok.strip('"')
                elif key == "weight" and edge and weight is None:
                    weight = tok.strip('"')
                continue
        if tok == "[":
            depth += 1
        elif tok == "]":
            depth -= 1
            if depth:
                continue
            if edge:
                if a is None or b is None:
                    raise ParseError(f"{path}: edge block without source/target")
                raw = value if value is not None else weight
                try:
                    ws.append(1.0 if raw is None else float(raw))
                except ValueError:
                    raise ParseError(f"{path}: bad weight {raw!r} on edge {a!r}-{b!r}")
                us.append(a)
                vs.append(b)
            else:
                if a is None:
                    raise ParseError(f"{path}: node block without id")
                ids.append(a)
                labels.append(a if b is None else b)
                values.append(value)
            edge = prev = None
    if edge is not None:
        raise ParseError(f"{path}: unterminated block")
    return (us, vs, ws), (ids, labels, values)


def _edges_pajek(path):
    us, vs, ws = [], [], []
    ids, labels = [], []
    mode = None
    with open(path, encoding="utf-8") as fh:
        for lineno, line in _data_lines(fh, "%"):
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
                ids.append(nid)
                labels.append(label)
            elif mode == "edges":
                parts = line.split()
                if len(parts) < 2:
                    raise ParseError(f"{path}:{lineno}: bad edge line {line!r}")
                us.append(parts[0])
                vs.append(parts[1])
                ws.append(_weight(path, lineno, parts))
            else:
                raise ParseError(f"{path}:{lineno}: content before any *Vertices/*Edges section")
    return (us, vs, ws), (ids, labels, [None] * len(ids))


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
    direction appears, whatever its weight. Under ``"strict"`` an edge whose
    direction already appeared for its pair is a duplicate, a later edge of
    a pair whose weight is more than 1e-12 away from the pair's first edge
    is a conflict, and the error names the earliest offending edge in file
    order. Self loops are dropped and counted; a repeated node
    id and a non-finite weight are each a ``ParseError``. ``largest_component``
    restricts to the biggest connected component (id map follows).
    """
    if format not in _PARSERS:
        raise ValueError(f"unknown format {format!r}; expected one of {FORMATS}")
    if symmetrize not in SYMMETRIZE:
        raise ValueError(f"unknown symmetrize {symmetrize!r}; expected one of {SYMMETRIZE}")
    (us, vs, ws), (nids, labels, node_values) = _PARSERS[format](path)
    declared = set()
    for nid in nids:
        if nid in declared:
            raise ParseError(f"{path}: node id {nid!r} declared twice")
        declared.add(nid)

    # prefer declared labels as node identities, but only when unique:
    # some public files carry duplicate labels under distinct ids
    names = labels if len(set(labels)) == len(labels) else nids
    name = dict(zip(nids, names))
    us, vs = list(map(name.get, us, us)), list(map(name.get, vs, vs))
    values = {x: value for x, value in zip(names, node_values) if value is not None}
    W = np.array(ws, dtype=float)
    bad = np.flatnonzero(~np.isfinite(W))
    if bad.size:
        e = bad[0]
        raise ParseError(f"{path}: non-finite weight {ws[e]} on edge {us[e]!r}-{vs[e]!r}")

    # declared nodes first, then the others in order of first appearance
    ids = list(dict.fromkeys(chain(names, chain.from_iterable(zip(us, vs)))))
    if len(ids) < 2:
        raise ParseError(f"{path}: fewer than 2 nodes")
    index = {x: i for i, x in enumerate(ids)}

    n = len(ids)
    I = np.fromiter(map(index.__getitem__, us), dtype=np.int64, count=len(us))
    J = np.fromiter(map(index.__getitem__, vs), dtype=np.int64, count=len(vs))
    loops = I == J
    self_loops = int(loops.sum())
    pos = np.flatnonzero(~loops)
    I, J, W = I[pos], J[pos], (np.ones(pos.size) if unweighted or symmetrize == "or"
                               else W[pos])
    lo, hi = np.minimum(I, J), np.maximum(I, J)
    key = lo * n + hi
    order = np.argsort(key, kind="stable")
    sk = key[order]
    first = sk != np.r_[-1, sk[:-1]]
    if symmetrize == "strict":
        # for each edge in sorted order, the position of its pair's first edge
        start = np.maximum.accumulate(np.where(first, np.arange(sk.size), 0))
        head = order[start]
        # a pair has two directions, so its third edge and later repeat one
        dup = ~first & ((I[order] == I[head]) | (np.arange(sk.size) - start >= 2))
        clash = dup | (~first & (np.abs(W[head] - W[order]) > 1e-12))
        if clash.any():
            e = np.argmin(np.where(clash, order, order.size))
            u, v = us[pos[order[e]]], vs[pos[order[e]]]
            if dup[e]:
                raise ParseError(f"{path}: duplicate edge between {u!r} and {v!r}")
            raise ParseError(f"{path}: conflicting weights {float(W[head[e]])} vs "
                             f"{float(W[order[e]])} for edge {u!r}-{v!r}")
    # zero weights are not stored: the component search would count a
    # stored zero as an edge
    pairs = order[first]
    pairs = pairs[W[pairs] != 0]
    lo, hi, w = lo[pairs], hi[pairs], W[pairs]
    A = csr_matrix((np.r_[w, w], (np.r_[lo, hi], np.r_[hi, lo])), shape=(n, n))

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


def _number_labels(values):
    """1-based label numbers in (length, text) order, so "2" comes before "10"."""
    rank = {v: i + 1 for i, v in enumerate(sorted(set(values), key=lambda s: (len(s), s)))}
    return np.array([rank[v] for v in values], dtype=int)


def load_labels(path, ids):
    """Sidecar ground-truth labels: lines of 'id label', one per node id
    (a repeated id is a ``ParseError``). Returns 1-based ints."""
    raw = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in _data_lines(fh, "#"):
            parts = line.split()
            if len(parts) != 2:
                raise ParseError(f"{path}:{lineno}: expected 'id label'")
            if parts[0] in raw:
                raise ParseError(f"{path}:{lineno}: node id {parts[0]!r} labelled twice")
            raw[parts[0]] = parts[1]
    missing = [x for x in ids if str(x) not in raw]
    if missing:
        raise ParseError(f"{path}: missing labels for {len(missing)} nodes, e.g. {missing[:3]}")
    return _number_labels([raw[str(x)] for x in ids])


SCREE_TOP = 15  # singular values a scree report lists by default


@dataclass
class ScreeReport:
    singular_values: np.ndarray
    suggested_k: int


def scree_report(A, m=SCREE_TOP):
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
        pi = [[f"{x:.8g}" for x in col] for col in self.result.Pi_hat.T.tolist()]
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "home_base", "highly_mixed"]
                            + [f"pi_{k + 1}" for k in range(K)])
            writer.writerows(zip(self.network.ids, self.home_base.tolist(),
                                 self.highly_mixed.astype(int).tolist(), *pi))

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
        onehot = np.eye(K)[network.labels - 1]
        report.miscluster_count = int(count)
        report.miscluster_rate = count / network.n
        report.label_l1_rate = _metrics.l1_error_rate(result.Pi_hat, onehot).l1_rate
    return report
