import numpy as np
import pytest

from spectralmix.netio import (
    FORMATS,
    ParseError,
    fit_network,
    load_edge_list,
    load_labels,
    save_edge_list,
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
        assert np.all(np.diag(net.adjacency) == 0)

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
        assert np.all(np.diag(net.adjacency) == 0)

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
            keep = largest_component_reference(full.adjacency)
            assert net.ids == [full.ids[i] for i in keep]

    def test_tie_keeps_lowest_index(self, tmp_path):
        path = tmp_path / "tie.tsv"
        path.write_text("c d 1\na b 1\n")
        net = load_edge_list(path, largest_component=True)
        assert net.ids == ["c", "d"]


class TestRoundTrip:
    def test_save_and_reload_identical(self, tmp_path, data_dir):
        net = load_edge_list(data_dir / "karate.tsv")
        out = tmp_path / "karate_again.tsv"
        save_edge_list(net, out)
        again = load_edge_list(out)
        remap = [again.ids.index(x) for x in net.ids]
        assert np.array_equal(again.adjacency[np.ix_(remap, remap)], net.adjacency)

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
        a = fit_network(data_dir / "karate.tsv", 2, seed=0,
                        labels_path=data_dir / "karate_labels.tsv")
        b = fit_network(renamed, 2, seed=0, labels_path=labels_renamed)
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


class TestFitNetwork:
    def test_karate_fit_surface(self, data_dir):
        report = fit_network(data_dir / "karate.tsv", 2, method="scd", seed=0,
                             labels_path=data_dir / "karate_labels.tsv")
        assert report.network.n == 34
        assert report.home_base.shape == (34,)
        assert set(report.home_base.tolist()) <= {1, 2}
        assert report.miscluster_count is not None
        rows = list(report.node_rows())
        assert len(rows) == 34
        assert all(len(r["membership"]) == 2 for r in rows)

    def test_csv_output(self, tmp_path, data_dir):
        report = fit_network(data_dir / "lesmis.tsv", 3, method="scd", seed=0)
        out = tmp_path / "lesmis.csv"
        report.write_csv(out)
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 78  # header + 77 nodes
        assert lines[0].startswith("id,home_base,highly_mixed,pi_1")

    def test_labels_sidecar_missing_node(self, tmp_path):
        net = tmp_path / "n.tsv"
        net.write_text("a b 1\nb c 1\n")
        labels = tmp_path / "labels.tsv"
        labels.write_text("a 1\nb 2\n")
        with pytest.raises(ParseError, match="missing labels"):
            fit_network(net, 2, labels_path=labels)
