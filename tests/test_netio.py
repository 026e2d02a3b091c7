import csv
import gc
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse import csr_matrix, issparse

from spectralmix import estimators, netio
from spectralmix.netio import (
    FORMATS,
    ParseError,
    fit_network,
    load_edge_list,
    load_labels,
    scree_report,
)


class TestWhitespaceTriplets:
    def test_two_node_file(self, tmp_path):
        path = tmp_path / "tiny.tsv"
        path.write_text("a b 1\n")
        net = load_edge_list(path)
        assert net.n == 2
        assert net.adjacency[0, 1] == 1.0
        assert net.adjacency[1, 0] == 1.0
        assert np.all(np.diag(net.adjacency.toarray()) == 0)

    def test_unweighted_lines_get_weight_one(self, tmp_path):
        path = tmp_path / "unweighted.tsv"
        path.write_text("a b\nb c\n")
        net = load_edge_list(path)
        assert net.adjacency[net.ids.index("a"), net.ids.index("b")] == 1.0

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "comments.tsv"
        path.write_text("# header\n\na b 2.5\n")
        net = load_edge_list(path)
        assert net.adjacency[0, 1] == 2.5

    def test_self_loops_dropped_and_counted(self, tmp_path):
        path = tmp_path / "loops.tsv"
        path.write_text("a a 3\na b 1\nb b 2\n")
        net = load_edge_list(path)
        assert net.dropped_self_loops == 2
        assert np.all(np.diag(net.adjacency.toarray()) == 0)

    def test_reciprocal_equal_weights_merge(self, tmp_path):
        path = tmp_path / "recip.tsv"
        path.write_text("a b 2\nb a 2\n")
        net = load_edge_list(path)
        assert net.adjacency[0, 1] == 2.0

    def test_conflicting_weights_rejected(self, tmp_path):
        path = tmp_path / "conflict.tsv"
        path.write_text("a b 2\nb a 3\n")
        with pytest.raises(ParseError, match="conflicting"):
            load_edge_list(path)

    def test_duplicate_edge_rejected(self, tmp_path):
        path = tmp_path / "dup.tsv"
        path.write_text("a b 2\na b 2\n")
        with pytest.raises(ParseError, match="duplicate"):
            load_edge_list(path)

    def test_or_symmetrization_binary(self, tmp_path):
        path = tmp_path / "directed.tsv"
        path.write_text("a b 2\nb a 9\nb c 1\n")
        net = load_edge_list(path, symmetrize="or", unweighted=True)
        assert net.adjacency[0, 1] == 1.0
        assert net.adjacency[1, 2] == 1.0
        # every weight reads as 1 under "or", negative ones included
        path.write_text("a b -2\nb c 1\nc a -1\n")
        net = load_edge_list(path, symmetrize="or")
        assert np.array_equal(net.adjacency.toarray(), np.ones((3, 3)) - np.eye(3))

    def test_parse_failure_reports_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a b 1\na b c d\n")
        with pytest.raises(ParseError, match=":2"):
            load_edge_list(path)

    def test_single_node_rejected(self, tmp_path):
        path = tmp_path / "one.tsv"
        path.write_text("# nothing\n")
        with pytest.raises(ParseError):
            load_edge_list(path)

    def test_unknown_symmetrize_rejected(self, tmp_path):
        path = tmp_path / "tiny.tsv"
        path.write_text("a b 1\nb c 2\n")
        with pytest.raises(ValueError, match=r"symmetrize 'bogus'.*'strict', 'or'"):
            load_edge_list(path, symmetrize="bogus")


class TestSparseAdjacency:
    def test_symmetric_csr_without_stored_zeros(self, tmp_path):
        path = tmp_path / "mixed.tsv"
        path.write_text("a b 1.5\nb c 0\nc d -2\nd a 1\nd b 0\nc e 3\n")
        A = load_edge_list(path).adjacency
        assert issparse(A) and A.format == "csr"
        assert A.shape == (5, 5)
        assert np.all(A.data != 0)
        assert A.nnz == 8  # four nonzero pairs, each stored both ways
        assert (A != A.T).nnz == 0
        assert A.diagonal().tolist() == [0.0] * 5


class TestGml:
    GML = """graph [
  directed 0
  node [ id 1 label "alpha" value 1 ]
  node [ id 2 label "beta" value 2 ]
  node [ id 3 label "gamma" value 1 ]
  edge [ source 1 target 2 value 2.0 ]
  edge [ source 2 target 3 ]
]
"""

    def test_parse_nodes_edges_weights_labels(self, tmp_path):
        path = tmp_path / "net.gml"
        path.write_text(self.GML)
        net = load_edge_list(path, format="gml_like")
        assert net.ids == ["alpha", "beta", "gamma"]
        assert net.adjacency[0, 1] == 2.0
        assert net.adjacency[1, 2] == 1.0
        assert net.labels.tolist() == [1, 2, 1]

    def test_isolated_declared_node_kept(self, tmp_path):
        path = tmp_path / "iso.gml"
        path.write_text('graph [ node [ id 1 ] node [ id 2 ] node [ id 3 ] '
                        'edge [ source 1 target 2 ] ]')
        net = load_edge_list(path, format="gml_like")
        assert net.n == 3
        net2 = load_edge_list(path, format="gml_like", largest_component=True)
        assert net2.n == 2
        assert net2.removed_nodes == 1

    def test_unterminated_block(self, tmp_path):
        path = tmp_path / "broken.gml"
        path.write_text("graph [ node [ id 1 ")
        with pytest.raises(ParseError):
            load_edge_list(path, format="gml_like")

    def test_unbalanced_quote_rejected(self, tmp_path):
        path = tmp_path / "quote.gml"
        path.write_text('graph [ node [ id 1 label "a ] node [ id 2 ] ]')
        with pytest.raises(ParseError, match=r"quote\.gml: unbalanced quote$"):
            load_edge_list(path, format="gml_like")

    def test_quoted_text_keeps_brackets_and_splits_from_bare_text(self, tmp_path):
        path = tmp_path / "quoted.gml"
        path.write_text('graph [ node [ id 1 label "x [ y ]" ] node [ id 2 label a"b c" ] ]')
        assert read_gml(path)[1] == [("1", "x [ y ]", None), ("2", "a", None)]

    @pytest.mark.parametrize("text,expected", [
        # a bracket where a key should be opens a skipped block
        ("graph [ node [ [ x ] id 1 ] ]", ([], [("1", "1", None)])),
        # a bracket where a value should be drops the key
        ("graph [ node [ id [ 2 ] id 3 ] ]", ([], [("3", "3", None)])),
        ("graph [ edge [ source 1 target 2 value [ 3 ] weight 4 ] ]",
         ([("1", "2", 4.0)], [])),
        # the file ends where a key's value should be
        ("graph [ node [ id", "unterminated block"),
        ("graph [ edge [ source 1 target", "unterminated block"),
        # node and edge blocks inside a node or edge block are skipped
        ("graph [ node [ id 1 edge [ source 1 target 2 ] ] "
         "edge [ source 1 target 2 node [ id 9 ] ] node [ id 2 ] ]",
         ([("1", "2", 1.0)], [("1", "1", None), ("2", "2", None)])),
        # the first occurrence of a key wins
        ("graph [ edge [ source 1 source 5 target 2 ] ]", ([("1", "2", 1.0)], [])),
    ], ids=["bracket-for-key", "bracket-for-value", "bracket-for-weight", "cut-after-id",
            "cut-after-target", "nested-blocks", "first-source-wins"])
    def test_two_token_step(self, tmp_path, text, expected):
        path = tmp_path / "pinned.gml"
        path.write_text(text)
        got = outcome(read_gml, path)
        assert got == outcome(gml_reference, path)
        assert got == (f"ParseError: {path}: {expected}" if isinstance(expected, str)
                       else expected)

    def test_matches_networkx(self, tmp_path):
        nx = pytest.importorskip("networkx")
        text = """graph [
  directed 0
  node [ id 1 label "left [wing]" graphics [ x 1.0 y 2.0 fill "#ff0000" ] ]
  node [ id 2 label "centre" ]
  node [ id 3 label "right wing" graphics [ x 3.0 y 0.5 ] ]
  node [ id 4 label "isolated" ]
  edge [ source 1 target 2 weight 2.5 ]
  edge [ source 3 target 2 weight 1.0 graphics [ width 2 ] ]
  edge [ source 1 target 3 weight 0.25 ]
]
"""
        path = tmp_path / "nx.gml"
        path.write_text(text)
        net = load_edge_list(path, format="gml_like")
        graph = nx.parse_gml(text)
        assert set(net.ids) == set(graph.nodes)
        A = net.adjacency
        ours = {frozenset((net.ids[i], net.ids[j])): A[i, j] for i, j in zip(*A.nonzero())}
        theirs = {frozenset((u, v)): d["weight"] for u, v, d in graph.edges(data=True)}
        assert ours == theirs


class TestPajek:
    PAJEK = """*Vertices 3
1 "a"
2 "b"
3 "c"
*Edges
1 2 2.0
2 3 1.0
"""

    def test_parse(self, tmp_path):
        path = tmp_path / "net.net"
        path.write_text(self.PAJEK)
        net = load_edge_list(path, format="pajek_like")
        assert net.ids == ["a", "b", "c"]
        assert net.adjacency[0, 1] == 2.0

    def test_arcs_with_or_mode(self, tmp_path):
        path = tmp_path / "arcs.net"
        path.write_text("*Vertices 2\n1 \"a\"\n2 \"b\"\n*Arcs\n1 2 1\n2 1 1\n")
        net = load_edge_list(path, format="pajek_like", symmetrize="or")
        assert net.adjacency[0, 1] == 1.0


class TestNonFiniteWeights:
    """Bad weights and repeated node ids fail as a ParseError naming the file."""

    FILES = {
        "whitespace_triplets": "a b 1\nb c {w}\n",
        "gml_like": ('graph [ node [ id 1 label "a" ] node [ id 2 label "b" ] '
                     'node [ id {last} label "c" ] edge [ source 1 target 2 ] '
                     'edge [ source 2 target 3 value {w} ] ]'),
        "pajek_like": '*Vertices 3\n1 "a"\n2 "b"\n{last} "c"\n*Edges\n1 2 1\n2 3 {w}\n',
    }
    NON_FINITE = r"bad\.txt: non-finite weight .* 'b'-'c'"
    EXPECTED = {
        ("whitespace_triplets", "x"): r"bad\.txt:2: bad weight 'x'",
        ("gml_like", "x"): r"bad\.txt: bad weight 'x' on edge '2'-'3'",
        ("pajek_like", "x"): r"bad\.txt:7: bad weight 'x'",
        ("gml_like", "repeated_id"): r"bad\.txt: node id '2' declared twice",
        ("pajek_like", "repeated_id"): r"bad\.txt: node id '2' declared twice",
    }
    CASES = ([(fmt, w) for w in ("inf", "-inf", "nan", "x") for fmt in FORMATS]
             + [("gml_like", "repeated_id"), ("pajek_like", "repeated_id")])

    @pytest.mark.parametrize("fmt,weight", CASES, ids=[f"{f}-{w}" for f, w in CASES])
    def test_rejected_naming_file_and_edge(self, tmp_path, fmt, weight):
        repeated = weight == "repeated_id"
        path = tmp_path / "bad.txt"
        path.write_text(self.FILES[fmt].format(w=1 if repeated else weight,
                                               last=2 if repeated else 3))
        with pytest.raises(ParseError, match=self.EXPECTED.get((fmt, weight), self.NON_FINITE)):
            load_edge_list(path, format=fmt)


def largest_component_reference(A):
    """Depth-first search over dense rows; ties keep the earliest component."""
    seen = np.zeros(len(A), dtype=bool)
    best = []
    for start in range(len(A)):
        if seen[start]:
            continue
        seen[start] = True
        stack, comp = [start], []
        while stack:
            u = stack.pop()
            comp.append(u)
            for v in np.nonzero(A[u])[0]:
                if not seen[v]:
                    seen[v] = True
                    stack.append(v)
        if len(comp) > len(best):
            best = comp
    return sorted(best)


class TestLargestComponent:
    def test_matches_reference_search(self, tmp_path):
        rng = np.random.default_rng(0)
        path = tmp_path / "random.tsv"
        for _ in range(50):
            n = int(rng.integers(4, 25))
            iu, ju = np.nonzero(np.triu(rng.random((n, n)) < 0.1, 1))
            lines = [f"{i} {j} {w:.3f}" for i, j, w in zip(iu, ju, rng.normal(size=iu.size))]
            if not lines:
                continue
            path.write_text("\n".join(lines) + "\n")
            full = load_edge_list(path)
            net = load_edge_list(path, largest_component=True)
            keep = largest_component_reference(full.adjacency.toarray())
            assert net.ids == [full.ids[i] for i in keep]

    def test_tie_keeps_lowest_index(self, tmp_path):
        path = tmp_path / "tie.tsv"
        path.write_text("c d 1\na b 1\n")
        net = load_edge_list(path, largest_component=True)
        assert net.ids == ["c", "d"]

    def test_zero_weight_link_is_no_edge(self, tmp_path):
        # the only link between {a, b, c} and {d, e} has weight 0
        path = tmp_path / "zero_link.tsv"
        path.write_text("a b 1\nb c 2\nc a 1\nc d 0\nd e 1\n")
        net = load_edge_list(path, largest_component=True)
        assert net.ids == ["a", "b", "c"]
        assert net.removed_nodes == 2


def records(columns):
    """A reader's columns, ``(us, vs, ws), (ids, labels, values)``, zipped
    back into ``(u, v, weight)`` edge and ``(id, label, value)`` node records."""
    edges, nodes = columns
    return list(zip(*edges)), list(zip(*nodes))


_GML_TOKEN = re.compile(r'"[^"]*"|\[|\]|[^\s\[\]]+')


def gml_reference(path):
    """Regex tokens and an index walk that parses each node or edge block
    from its opening bracket; the GML reader must give the same result."""
    tokens = _GML_TOKEN.findall(Path(path).read_text())
    edges, nodes = [], []

    def parse_block(start):
        depth, fields, j = 0, {}, start
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

    i = 0
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


def load_reference(path, format, symmetrize, unweighted):
    """``load_edge_list`` without ``largest_component``, merging edge by
    edge in file order: an edge whose direction its pair has already seen
    is a duplicate, each later edge of a pair is checked against the pair's
    first edge's weight, and the first failing check raises."""
    if format == "gml_like":
        edges, nodes = gml_reference(path)
    else:
        edges, nodes = records(netio._PARSERS[format](path))
    declared = set()
    for nid, _, _ in nodes:
        if nid in declared:
            raise ParseError(f"{path}: node id {nid!r} declared twice")
        declared.add(nid)
    label_list = [label for _, label, _ in nodes]
    use_labels = len(set(label_list)) == len(label_list)
    name = {nid: (label if use_labels else nid) for nid, label, _ in nodes}
    edges = [(name.get(u, u), name.get(v, v), w) for u, v, w in edges]
    values = {name[nid]: value for nid, _, value in nodes if value is not None}
    for u, v, w in edges:
        if not math.isfinite(w):
            raise ParseError(f"{path}: non-finite weight {w} on edge {u!r}-{v!r}")
    ids = [name[nid] for nid, _, _ in nodes]
    for u, v, _ in edges:
        for x in (u, v):
            if x not in ids:
                ids.append(x)
    if len(ids) < 2:
        raise ParseError(f"{path}: fewer than 2 nodes")
    n = len(ids)
    have, self_loops = {}, 0
    for u, v, w in edges:
        i, j = ids.index(u), ids.index(v)
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
            prev, seen = have[key]
            if (i, j) in seen:
                raise ParseError(f"{path}: duplicate edge between {u!r} and {v!r}")
            if abs(prev - w) > 1e-12:
                raise ParseError(
                    f"{path}: conflicting weights {prev} vs {w} for edge {u!r}-{v!r}")
            seen.add((i, j))
            continue
        have[key] = (w, {(i, j)})
    A = np.zeros((n, n))
    for (i, j), (w, _) in have.items():
        A[i, j] = A[j, i] = w
    raw = [values.get(x) for x in ids]
    labels = (netio._number_labels(raw) if values and all(r is not None for r in raw)
              else None)
    return csr_matrix(A), ids, labels, self_loops


def read_gml(path):
    """``_edges_gml``'s columns as records, to compare with ``gml_reference``."""
    return records(netio._edges_gml(path))


def outcome(load, *args):
    """What a loader gives: its result, or the ``ParseError`` text."""
    try:
        return load(*args)
    except ParseError as exc:
        return f"ParseError: {exc}"


def same_network(path, format, symmetrize, unweighted):
    """``load_edge_list`` agrees with ``load_reference``: the CSR arrays,
    ids, labels and self-loop count, or the exact ``ParseError`` text."""
    expected = outcome(load_reference, path, format, symmetrize, unweighted)
    got = outcome(load_edge_list, path, format, symmetrize, False, unweighted)
    if isinstance(expected, str) or isinstance(got, str):
        assert got == expected
        return
    A, ids, labels, self_loops = expected
    assert got.adjacency.format == "csr"
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got.adjacency, attr), getattr(A, attr))
    assert got.ids == ids and got.dropped_self_loops == self_loops
    assert (got.labels is None) == (labels is None)
    if labels is not None:
        assert np.array_equal(got.labels, labels)


MODES = [(sym, unweighted) for sym in ("strict", "or") for unweighted in (False, True)]

WEIGHTS = ("1", "1", "2", "0", "2.5", "-1", "x", "inf", "1e400")


def random_gml_soup(rng):
    """GML text from node and edge blocks with nested and stray blocks,
    repeated keys, quoted brackets and keywords as values; now and then a
    token is deleted or inserted, or the text is cut short."""
    def pick(seq):
        return seq[rng.integers(len(seq))]

    vocab = ["node", "edge", "[", "]", "id", "label", "value", "weight", "source",
             "target", "graphics", "1", "2", '"3"', '"a [b"', '"node"', '""', "x"]
    ids = ["1", "2", "3", "4", "5", '"2"']
    labels = ['"a"', '"b"', '"c d"', '"[e]"', "f"]

    def fields(keys):
        out = []
        for _ in range(rng.integers(0, 4)):
            key = pick(keys)
            out += [key, pick(ids if key in ("id", "source", "target") else
                              labels if key == "label" else WEIGHTS)]
            if rng.random() < 0.2:
                out += [pick(["graphics", "node", "edge"]), "[", "x", pick(ids), "]"]
        return out

    toks = ["graph", "["]
    node_share = 0.4
    if rng.random() < 0.3:  # every node declared with a value: ground-truth labels
        for nid in ids[:5]:
            toks += ["node", "[", "id", nid, "label", pick(labels), "value", pick(ids), "]"]
        ids, node_share = ids[:5], 0.0
    for _ in range(rng.integers(1, 10)):
        r = rng.random()
        if r < node_share:
            toks += ["node", "[", "id", pick(ids)] + fields(["label", "value", "id"]) + ["]"]
        elif r < 0.85:
            toks += (["edge", "[", "source", pick(ids), "target", pick(ids)]
                     + fields(["value", "weight", "source"]) + ["]"])
        else:
            toks += [pick(vocab) for _ in range(rng.integers(1, 5))]
    toks.append("]")
    if rng.random() < 0.2:
        del toks[rng.integers(len(toks))]
    if rng.random() < 0.2:
        toks.insert(rng.integers(len(toks) + 1), pick(vocab))
    if rng.random() < 0.1:
        toks = toks[:rng.integers(len(toks))]
    return "".join(tok + pick([" ", "\n", "\t  "]) for tok in toks)


def random_edge_lines(rng):
    """Whitespace triplets over a small node pool: reciprocal pairs, self
    loops and zero weights, with repeats and near-equal weights now and then."""
    pool = [f"n{k}" for k in range(rng.integers(2, 7))]
    weights = ["1", "2", "0", "-1.5", "1.0000000000005", "1.000000000002"]
    lines = []
    for _ in range(rng.integers(0, 12)):
        u, v = pool[rng.integers(len(pool))], pool[rng.integers(len(pool))]
        w = weights[rng.integers(len(weights))]
        lines.append(f"{u} {v} {w}")
        if rng.random() < 0.4:
            lines.append(f"{v} {u} {w}")
    if rng.random() < 0.05:
        lines.append(f"{pool[0]} {pool[-1]} nan")
    return "\n".join(rng.permutation(lines).tolist()) + "\n"


class TestReferenceMerge:
    """The vectorised reader and merge against the token walk and
    edge-by-edge merge in ``gml_reference`` and ``load_reference``."""

    def test_gml_soups(self, tmp_path):
        rng = np.random.default_rng(13)
        path = tmp_path / "soup.gml"
        for _ in range(300):
            path.write_text(random_gml_soup(rng))
            assert outcome(read_gml, path) == outcome(gml_reference, path)
            for symmetrize, unweighted in MODES:
                same_network(path, "gml_like", symmetrize, unweighted)

    def test_random_edge_lists(self, tmp_path):
        rng = np.random.default_rng(14)
        path = tmp_path / "edges.tsv"
        for _ in range(300):
            path.write_text(random_edge_lines(rng))
            for symmetrize, unweighted in MODES:
                same_network(path, "whitespace_triplets", symmetrize, unweighted)

    @pytest.mark.parametrize("symmetrize,unweighted", MODES)
    @pytest.mark.parametrize("text", [
        # the duplicate c-d comes before the conflicting a-b in the file,
        # though a-b sorts first
        "a b 1\nc d 1\nc d 1\nb a 2\n",
        # a third a-b edge repeats a direction, whichever it takes
        "a b 1\nb a 1\nb a 1\n",
        "a b 1\nb a 1\na b 1\n",
        "a b 1\nb a 1.0000000000008\nb a 1.0000000000016\n",
        # only self loops: two nodes, no edge
        "a a 1\nb b 2\n",
        # zero weights are no edge, and conflict with a nonzero reciprocal
        "a b 0\nb a 0\nb c 1\n",
        "a b 0\nb c 1\nb a 3\n",
    ], ids=["earliest-offender", "third-reversed", "third-duplicate", "third-conflict",
            "self-loops-only", "zero-weights", "zero-conflict"])
    def test_pinned(self, tmp_path, text, symmetrize, unweighted):
        path = tmp_path / "pinned.tsv"
        path.write_text(text)
        same_network(path, "whitespace_triplets", symmetrize, unweighted)

    def test_pinned_outcomes(self, tmp_path):
        path = tmp_path / "pinned.tsv"
        path.write_text("a b 1\nc d 1\nc d 1\nb a 2\n")
        with pytest.raises(ParseError, match=r"tsv: duplicate edge between 'c' and 'd'$"):
            load_edge_list(path)
        path.write_text("a b 1\nb a 1\nb a 1\n")
        with pytest.raises(ParseError, match=r"tsv: duplicate edge between 'b' and 'a'$"):
            load_edge_list(path)
        # within 1e-12 of the first edge, a repeated direction is still a duplicate
        path.write_text("a b 1\nb a 1.0000000000008\nb a 1.0000000000016\n")
        with pytest.raises(ParseError, match=r"tsv: duplicate edge between 'b' and 'a'$"):
            load_edge_list(path)
        path.write_text("a b 1\nb a 1.0000000000016\n")
        with pytest.raises(ParseError, match=r"tsv: conflicting weights 1\.0 vs "
                                             r"1\.0000000000016 for edge 'b'-'a'$"):
            load_edge_list(path)
        path.write_text("a a 1\nb b 2\n")
        net = load_edge_list(path)
        assert net.ids == ["a", "b"] and net.adjacency.nnz == 0
        assert net.dropped_self_loops == 2
        path.write_text("a b 0\nb a 0\nb c 1\n")
        assert load_edge_list(path).adjacency.nnz == 2
        assert load_edge_list(path, symmetrize="or").adjacency.nnz == 4


class TestRoundTrip:
    def test_id_relabeling_keeps_metrics(self, tmp_path, data_dir):
        raw = (data_dir / "karate.tsv").read_text()
        renamed = tmp_path / "karate_renamed.tsv"
        renamed.write_text("\n".join(
            " ".join([f"node_{p.split()[0]}", f"node_{p.split()[1]}", p.split()[2]])
            for p in raw.strip().splitlines()))
        labels_renamed = tmp_path / "labels_renamed.tsv"
        labels_renamed.write_text("\n".join(
            f"node_{line.split()[0]} {line.split()[1]}"
            for line in (data_dir / "karate_labels.tsv").read_text().strip().splitlines()))
        a, b = load_edge_list(data_dir / "karate.tsv"), load_edge_list(renamed)
        a.labels = load_labels(data_dir / "karate_labels.tsv", a.ids)
        b.labels = load_labels(labels_renamed, b.ids)
        a, b = fit_network(a, 2, seed=0), fit_network(b, 2, seed=0)
        assert a.miscluster_count == b.miscluster_count
        assert a.label_l1_rate == pytest.approx(b.label_l1_rate, abs=1e-12)


class TestScree:
    def test_deterministic(self, data_dir):
        net = load_edge_list(data_dir / "karate.tsv")
        a = scree_report(net.adjacency, 15)
        b = scree_report(net.adjacency, 15)
        assert np.array_equal(a.singular_values, b.singular_values)
        assert a.suggested_k == b.suggested_k

    def test_exact_rank_gap(self):
        A = np.diag([5.0, 4.0, 1.0, 0.9, 0.8])
        report = scree_report(A, 5)
        assert report.suggested_k == 2  # 4/1 dominates 5/4 and the tail ratios

    def test_m_capped_at_n(self):
        A = np.eye(3)
        report = scree_report(A, 10)
        assert len(report.singular_values) == 3

    def test_fewer_than_two_values_rejected(self):
        with pytest.raises(ValueError, match="at least 2 singular values"):
            scree_report(np.eye(3), 1)


def write_csv_rows(report, path):
    """``FitReport.write_csv`` one ``writerow`` per node, as it was before
    it wrote columns: the oracle for the column writer."""
    K = report.result.Pi_hat.shape[1]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "home_base", "highly_mixed"]
                        + [f"pi_{k + 1}" for k in range(K)])
        for i, node_id in enumerate(report.network.ids):
            writer.writerow([node_id, int(report.home_base[i]), int(report.highly_mixed[i])]
                            + [f"{x:.8g}" for x in report.result.Pi_hat[i]])


class TestWriteCsv:
    """The column writer against the row-by-row one, on Les Miserables with
    node names that csv must quote."""

    # a comma, a space and a newline in quoted GML labels
    GML_NAMES = {"Myriel": "Myriel, bishop", "Napoleon": "Napoleon I",
                 "Valjean": "Jean\nValjean"}
    # a comma and a double quote in bare whitespace ids
    TSV_NAMES = {"Myriel": "Myriel,bishop", "Napoleon": 'Napoleon"I"'}

    @classmethod
    def network(cls, data_dir, tmp_path, fmt):
        edges = [line.split() for line in (data_dir / "lesmis.tsv").read_text().splitlines()]
        if fmt == "whitespace_triplets":
            path = tmp_path / "lesmis.tsv"
            path.write_text("".join(f"{cls.TSV_NAMES.get(u, u)} {cls.TSV_NAMES.get(v, v)} {w}\n"
                                    for u, v, w in edges))
            return load_edge_list(path)
        names = list(dict.fromkeys(x for u, v, _ in edges for x in (u, v)))
        number = {x: k for k, x in enumerate(names, 1)}
        path = tmp_path / "lesmis.gml"
        path.write_text("graph [\n" + "".join(
            f'node [ id {number[x]} label "{cls.GML_NAMES.get(x, x)}" ]\n' for x in names)
            + "".join(f"edge [ source {number[u]} target {number[v]} value {w} ]\n"
                      for u, v, w in edges) + "]\n")
        return load_edge_list(path, format="gml_like")

    @pytest.mark.parametrize("K", [2, 3])
    @pytest.mark.parametrize("fmt", ["whitespace_triplets", "gml_like"])
    def test_matches_row_writer(self, tmp_path, data_dir, fmt, K):
        network = self.network(data_dir, tmp_path, fmt)
        special = self.TSV_NAMES if fmt == "whitespace_triplets" else self.GML_NAMES
        assert set(special.values()) <= set(network.ids)
        report = fit_network(network, K, method="scd", seed=0)
        report.write_csv(tmp_path / "columns.csv")
        write_csv_rows(report, tmp_path / "rows.csv")
        got = (tmp_path / "columns.csv").read_bytes()
        assert got == (tmp_path / "rows.csv").read_bytes()
        rows = list(csv.reader(got.decode("utf-8").splitlines(keepends=True)))
        assert len(rows) == network.n + 1
        assert [row[0] for row in rows[1:]] == network.ids


class TestFitNetwork:
    def test_karate_fit_surface(self, data_dir):
        network = load_edge_list(data_dir / "karate.tsv")
        network.labels = load_labels(data_dir / "karate_labels.tsv", network.ids)
        report = fit_network(network, 2, method="scd", seed=0)
        assert report.network is network
        assert report.network.n == 34
        assert report.home_base.shape == (34,)
        assert set(report.home_base.tolist()) <= {1, 2}
        assert report.miscluster_count is not None
        assert report.result.Pi_hat.shape == (34, 2)

    def test_labels_with_other_class_count_say_why_unscored(self, data_dir):
        network = load_edge_list(data_dir / "karate.tsv")
        network.labels = load_labels(data_dir / "karate_labels.tsv", network.ids)
        summary = fit_network(network, 3, method="scd", seed=0).summary()
        assert summary["unscored"] == "labels have 2 classes, K=3"
        assert "miscluster_count" not in summary and "label_l1_rate" not in summary
        scored = fit_network(network, 2, method="scd", seed=0).summary()
        assert "unscored" not in scored and scored["miscluster_count"] == 0

    def test_csv_output(self, tmp_path, data_dir):
        report = fit_network(load_edge_list(data_dir / "lesmis.tsv"), 3, method="scd", seed=0)
        out = tmp_path / "lesmis.csv"
        report.write_csv(out)
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 78  # header + 77 nodes
        assert lines[0].startswith("id,home_base,highly_mixed,pi_1")

    def test_k_below_two_rejected_before_fitting(self, data_dir, monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("estimator called")

        monkeypatch.setattr(estimators, "estimate", no_fit)
        with pytest.raises(ValueError, match="K must be at least 2"):
            fit_network(load_edge_list(data_dir / "karate.tsv"), 1)

    def test_labels_sidecar_missing_node(self, tmp_path):
        net = tmp_path / "n.tsv"
        net.write_text("a b 1\nb c 1\n")
        labels = tmp_path / "labels.tsv"
        labels.write_text("a 1\nb 2\n")
        with pytest.raises(ParseError, match="missing labels"):
            load_labels(labels, load_edge_list(net).ids)

    def test_labels_sidecar_repeated_node(self, tmp_path):
        net = tmp_path / "n.tsv"
        net.write_text("a b 1\nb c 1\n")
        labels = tmp_path / "labels.tsv"
        labels.write_text("a 1\nb 1\nc 2\na 2\n")
        with pytest.raises(ParseError, match=r"labels\.tsv:4: node id 'a' labelled twice"):
            load_labels(labels, load_edge_list(net).ids)


class TestLabelsAfterLargestComponent:
    def test_labels_follow_the_kept_nodes(self, tmp_path):
        # an isolated node declared first and a separate pair are cut; the
        # kept four-cycle is declared out of order
        value = {"iso": 2, "d": 1, "b": 2, "p": 2, "a": 1, "q": 1, "c": 2}
        nodes = "".join(f'node [ id {i} label "{name}" value {value[name]} ] '
                        for i, name in enumerate(value, 1))
        ids = {name: i for i, name in enumerate(value, 1)}
        links = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("p", "q")]
        edges = "".join(f"edge [ source {ids[u]} target {ids[v]} ] " for u, v in links)
        path = tmp_path / "labelled.gml"
        path.write_text(f"graph [ {nodes}{edges}]\n")
        net = load_edge_list(path, format="gml_like", largest_component=True)
        assert net.ids == ["d", "b", "a", "c"] and net.removed_nodes == 3
        assert net.labels.tolist() == [value[x] for x in net.ids]


class TestSkippedLines:
    """Blank and comment lines are skipped, and still counted in line numbers."""

    READERS = {
        "whitespace": ("# header\n\na b 2\n# note\nb c\n", "a b 2\n\n# note\nb c 3 4\n",
                       ":4: expected 'u v [weight]'"),
        "pajek": ("% header\n*Vertices 2\n\n1 a\n% note\n2 b\n*Edges\n1 2 2\n",
                  "*Vertices 2\n1 a\n\n% note\n*Edges\n1\n",
                  ":6: bad edge line '1'"),
        "labels": ("# header\na 1\n\n# note\nb 2\n", "a 1\n\n# note\nb 2 3\n",
                   ":4: expected 'id label'"),
    }

    @staticmethod
    def read(reader, path):
        if reader == "labels":
            return load_labels(path, ["a", "b"])
        return load_edge_list(path, format="pajek_like" if reader == "pajek"
                              else "whitespace_triplets")

    @pytest.mark.parametrize("reader", READERS)
    def test_skipped(self, tmp_path, reader):
        good, _, _ = self.READERS[reader]
        path = tmp_path / "good.txt"
        path.write_text(good)
        got = self.read(reader, path)
        if reader == "labels":
            assert got.tolist() == [1, 2]
        else:
            assert got.ids[:2] == ["a", "b"] and got.adjacency[0, 1] == 2.0

    @pytest.mark.parametrize("reader", READERS)
    def test_error_line_counts_skipped_lines(self, tmp_path, reader):
        _, bad, message = self.READERS[reader]
        path = tmp_path / "bad.txt"
        path.write_text(bad + "more lines\n" * 3)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ParseError, match=re.escape(f"{path}{message}")):
                self.read(reader, path)
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


class TestBoundaryErrors:
    # a one-field Pajek edge line and a three-field label line are
    # TestSkippedLines' error cases
    CASES = {
        "unknown-format": (lambda path: load_edge_list(path, format="csv"), "a b\n", ValueError,
                           "unknown format 'csv'; expected one of " + re.escape(str(FORMATS))),
        "pajek-content-before-sections": (lambda path: load_edge_list(path, format="pajek_like"),
                                          "1 2\n", ParseError,
                                          re.escape(":1: content before any *Vertices/*Edges "
                                                    "section")),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_raises_named_error(self, tmp_path, case):
        call, text, error, message = self.CASES[case]
        path = tmp_path / "input.txt"
        path.write_text(text)
        with pytest.raises(error, match=message):
            call(path)
