import numpy as np
import pytest
from scipy.sparse import issparse

from spectralmix import estimators
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
