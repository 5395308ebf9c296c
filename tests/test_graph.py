import io
import pickle
import random
from dataclasses import asdict

import pytest

from adjfactor import (
    DataError,
    Graph,
    GrowthConfig,
    ParseError,
    average_clustering_coefficient,
    census,
    generate_pa_tf,
    load_edge_list,
    write_edge_list,
)
from adjfactor import graph as graph_module
from adjfactor.graph import parse_edge_list
from helpers import complete_graph, er_graph, path_graph


class TestParse:
    def test_directed_duplicates_collapse(self):
        g, report = parse_edge_list("1 2\n2 3\n2 1\n")
        assert g.node_count == 3
        assert g.edge_count == 2
        assert report.duplicates_dropped == 1

    def test_self_loops_dropped_and_counted(self):
        g, report = parse_edge_list("# c\n5 5\n5 6\n")
        assert g.node_count == 2
        assert g.edge_count == 1
        assert report.self_loops_dropped == 1

    def test_empty_input_is_empty_graph(self):
        g, report = parse_edge_list("")
        assert g.node_count == 0
        assert g.edge_count == 0
        assert report.lines_read == 0

    def test_comment_prefixes_and_blank_lines(self):
        g, report = parse_edge_list("# a\n% b\n\n0 1\n")
        assert g.edge_count == 1
        assert report.lines_read == 4

    def test_extra_columns_ignored(self):
        g, _ = parse_edge_list("0 1 1462320000 0.5\n1 2 1462320001 0.7\n")
        assert g.node_count == 3
        assert g.edge_count == 2

    def test_comma_separated(self):
        g, _ = parse_edge_list("0,1\n1,2,1462320000\n")
        assert g.edge_count == 2

    def test_malformed_token_reports_line_number(self):
        with pytest.raises(ParseError) as info:
            parse_edge_list("0 1\nx 2\n")
        assert info.value.line_number == 2

    def test_negative_id_rejected(self):
        with pytest.raises(ParseError):
            parse_edge_list("0 -1\n")

    def test_single_column_rejected(self):
        with pytest.raises(ParseError):
            parse_edge_list("7\n")

    @pytest.mark.parametrize(
        "text, edges, report",
        [
            (f"{2**64} 5\n{2**63} {2**64}\n", {(0, 2), (1, 2)}, (2, 0, 0, 3, 2)),
            ("+7 8\n007 9\n+7 007\n", {(0, 1), (0, 2)}, (3, 1, 0, 3, 2)),
            ("3 3\n1 2\n2 1\n", {(0, 1)}, (3, 1, 1, 3, 1)),
            ("1\t2\r\n2;3\r\n3 , 1\r\n", {(0, 1), (1, 2), (0, 2)}, (3, 0, 0, 3, 3)),
        ],
        ids=["labels_beyond_int64", "signed_and_zero_padded", "label_only_in_self_loop",
             "crlf_tab_semicolon"],
    )
    def test_ingest_pins(self, text, edges, report):
        """report: lines read, self-loops dropped, duplicates dropped, nodes, edges."""
        g, got = parse_edge_list(text)
        assert set(g.edges()) == edges
        assert tuple(asdict(got).values()) == report
        assert (g.node_count, g.edge_count) == report[3:]

    @pytest.mark.parametrize(
        "text, line_number, message",
        [
            ("# c\n\n% d\n1 2\nx 3\n", 5, "non-integer token 'x'"),
            ("\n\n0 1\n# 5\n5\n", 5, "expected at least two integer columns"),
            ("0 1\n\n   \n-3 +\n", 4, "negative node id -3"),
        ],
        ids=["non_integer", "one_column", "negative_before_non_integer"],
    )
    def test_error_line_number_counts_blank_and_comment_lines(self, text, line_number, message):
        with pytest.raises(ParseError) as info:
            parse_edge_list(text)
        assert (info.value.line_number, str(info.value)) == (line_number, f"line {line_number}: {message}")

    def test_labels_remapped_dense(self):
        g, report = parse_edge_list("100 200\n200 350\n")
        assert g.node_count == 3
        assert set(g.edges()) == {(0, 1), (1, 2)}
        assert report.nodes == 3 and report.edges == 2

    def test_line_permutation_gives_identical_graph(self):
        lines = [f"{u} {v}" for u, v in er_graph(18, 0.3, seed=5).edges()]
        g1, _ = parse_edge_list("\n".join(lines))
        shuffled = lines[:]
        random.Random(3).shuffle(shuffled)
        g2, _ = parse_edge_list("\n".join(shuffled))
        assert g1 == g2
        assert g1.degrees() == g2.degrees()
        assert list(census(g1, "s").factors) == list(census(g2, "s").factors)

    @pytest.mark.parametrize(
        "content", [None, b"\xff\xfe1 2\n", b"1 2\n3 \xe9\n", b"# \xe9\n1 2\n"],
        ids=["missing", "binary", "latin1_line", "latin1_comment"],
    )
    def test_unreadable_file_is_data_error(self, tmp_path, content):
        path = tmp_path / "input.txt"
        if content is not None:
            path.write_bytes(content)
        with pytest.raises(DataError):
            load_edge_list(path)

    def test_round_trip(self):
        grown = generate_pa_tf(GrowthConfig(n=200, n0=3, m=3, p_t=0.5, seed=4))
        for g in (er_graph(25, 0.25, seed=9), grown):
            buffer = io.StringIO()
            write_edge_list(g, buffer)
            g2, report = parse_edge_list(buffer.getvalue())
            assert report.duplicates_dropped == 0 and report.self_loops_dropped == 0
            assert (g2.node_count, g2.edge_count) == (g.node_count, g.edge_count)
            assert g2.degrees() == g.degrees()
            assert g2 == g

    @pytest.mark.parametrize("brk", ["\x0b", "\x0c", "\x1c", "\x85", "\u2028"],
                             ids=["vt", "ff", "fs", "nel", "ls"])
    def test_file_and_string_split_lines_alike(self, tmp_path, brk):
        """A file breaks lines where `str.splitlines` does, like a string."""
        path = tmp_path / "input.txt"
        text = f"1 2{brk}3 4\n5 6\n"
        path.write_text(text, encoding="utf-8")
        g, report = load_edge_list(path)
        assert (g, report) == parse_edge_list(text)
        assert (report.lines_read, report.edges) == (3, 3)
        path.write_text(f"1 2{brk}3 x\n", encoding="utf-8")
        with pytest.raises(ParseError) as info:
            load_edge_list(path)
        assert info.value.line_number == 2

    @pytest.mark.parametrize(
        "text",
        [
            "", "\n", "1 2", "1 2\n\n", "# é — x\n1 2\n", "%\n \t# 1\n007\t0;3,,4\n",
            f"{'9' * 18} {10**17} 5\n", f"1 2 {'3' * 30}\n", "1 , 2\n  \t\n",
        ],
        ids=["empty", "blank", "no_final_newline", "trailing_blank", "non_ascii_comment",
             "mixed_gaps", "eighteen_digits", "long_extra_column", "spaced_comma"],
    )
    def test_plain_text_parses_in_bulk(self, text):
        parsed = graph_module._parse_plain(text.encode())
        assert parsed is not None
        assert parsed == graph_module._parse_lines(text)

    @pytest.mark.parametrize(
        "text",
        [
            "1 2\r\n", "1 2\n3 4\r", "+1 2\n", "1_0 2\n", "1 2.5\n", "1 2 0.5\n", "1 2\n3\n",
            f"{'1' * 19} 2\n", f"{'0' * 19} 2\n", "1\xa02\n", "1 2\u3000\n", "1 2\n,\n", "1 2\n;;\n",
            "1 2 # x\n", "1 # 2\n", ", # x\n1 2\n", "# a\x85b\n", "# a\u2029b\n", "# a\r1 2\n",
        ],
        ids=["crlf", "cr", "sign", "underscore", "dot", "dot_in_extra_column", "one_token",
             "nineteen_digits", "nineteen_zero_padded", "nbsp", "ideographic_space",
             "comma_line", "semicolon_line", "inline_comment", "hash_between_tokens",
             "comment_after_comma", "nel_in_comment", "ps_in_comment", "cr_in_comment"],
    )
    def test_other_text_declines_to_the_line_parser(self, text):
        assert graph_module._parse_plain(text.encode()) is None
        try:
            expected = graph_module._parse_lines(text)
        except ParseError as error:
            with pytest.raises(ParseError) as info:
                parse_edge_list(text)
            assert str(info.value) == str(error)
            return
        assert parse_edge_list(text) == expected

    def test_large_file_loads_in_bulk_as_the_line_parser_reads_it(self, tmp_path, monkeypatch):
        rng = random.Random(2022)
        labels = [rng.randrange(10**rng.choice((1, 4, 9, 18))) for _ in range(20000)]
        lines = ["# Directed graph: a seeded stand-in", "# FromNodeId\tToNodeId"]
        pairs: list[tuple[int, int]] = []
        while len(lines) < 200_000:
            roll = rng.random()
            if roll < 0.02:
                lines.append(rng.choice(["", "  ", "\t"]))
                continue
            if roll < 0.1 and pairs:
                u, v = rng.choice(pairs)  # a duplicate, half of them reversed
                u, v = (v, u) if rng.random() < 0.5 else (u, v)
            elif roll < 0.12:
                u = v = rng.choice(labels)
            else:
                u, v = rng.choice(labels), rng.choice(labels)
                pairs.append((u, v))
            gap = rng.choice([" ", "\t", ",", " ; "])
            extra = rng.choice(["", f"{gap}{rng.randrange(10**10)}", f"{gap}1{gap}0"])
            lines.append(f"{u}{gap}{v}{extra}")
        text = "\n".join(lines) + "\n"
        path = tmp_path / "large.txt"
        path.write_text(text, encoding="utf-8")
        expected = graph_module._parse_lines(text)
        report = expected[1]
        assert report.self_loops_dropped > 0 and report.duplicates_dropped > 0
        assert report.lines_read == 200_000

        def unreachable(text):
            raise AssertionError("plain text reached the line parser")

        monkeypatch.setattr(graph_module, "_parse_lines", unreachable)
        assert load_edge_list(path) == expected


class TestGraphType:
    def test_from_edges_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph.from_edges([(1, 1)])

    def test_from_edges_rejects_duplicate(self):
        with pytest.raises(ValueError):
            Graph.from_edges([(0, 1), (1, 0)])

    @pytest.mark.parametrize(
        "adjacency",
        [[[1], []], [[1], [0, 2]], [[-1]], [[0]]],
        ids=["asymmetric", "out_of_range", "negative", "self_loop"],
    )
    def test_constructor_rejects_invalid_adjacency(self, adjacency):
        with pytest.raises(ValueError):
            Graph(adjacency)

    def test_constructor_sorts_and_collapses_repeated_ids(self):
        g = Graph([[2, 1, 1], {0}, (0, 0)])
        assert (g.neighbors(0), g.neighbors(1), g.neighbors(2), g.edge_count) == ((1, 2), (0,), (0,), 2)
        assert g == Graph.from_edges([(0, 1), (0, 2)])

    @pytest.mark.parametrize("v", [-1, 3])
    def test_node_out_of_range_has_no_row(self, v):
        g = path_graph(3)
        for read in (g.degree, g.neighbors):
            with pytest.raises(IndexError):
                read(v)
        assert not g.has_edge(v, 0)

    def test_csr_is_read_only_and_survives_pickling(self):
        g = er_graph(20, 0.4, seed=2)
        with pytest.raises(ValueError):
            g.indices[0] = 1
        copy = pickle.loads(pickle.dumps(g))
        assert copy == g and hash(copy) == hash(g)
        with pytest.raises(ValueError):
            copy.indptr[0] = 1

    def test_neighbors_sorted_and_symmetric(self):
        g = er_graph(20, 0.4, seed=2)
        for v in range(g.node_count):
            nb = g.neighbors(v)
            assert list(nb) == sorted(nb)
            for u in nb:
                assert v in g.neighbors(u)

    def test_edge_count_is_half_degree_sum(self):
        g = er_graph(20, 0.4, seed=2)
        assert sum(g.degrees()) == 2 * g.edge_count


class TestClustering:
    def test_hub_with_one_neighbor_edge(self):
        # local values 1/3 at the hub, 1 at both ends of its neighbor edge, 0 at the leaf
        g = Graph.from_edges([(0, 1), (0, 2), (0, 3), (1, 2)])
        assert average_clustering_coefficient(g) == pytest.approx((1 / 3 + 1 + 1 + 0) / 4)

    def test_degree_one_is_zero(self):
        # a triangle and a separate edge: the edge's two ends count as 0 in the mean
        g = Graph.from_edges([(0, 1), (1, 2), (0, 2), (3, 4)])
        assert average_clustering_coefficient(g) == 3 / 5

    def test_average_k3(self):
        assert average_clustering_coefficient(complete_graph(3)) == 1.0

    def test_average_path(self):
        assert average_clustering_coefficient(path_graph(3)) == 0.0

    def test_average_sums_local_values_in_node_order(self):
        nx = pytest.importorskip("networkx")
        g = generate_pa_tf(GrowthConfig(n=3000, n0=3, m=3, p_t=0.5, seed=1))
        h = nx.Graph(g.edges())
        local = nx.clustering(h)
        total = 0.0
        for v in range(g.node_count):
            total += local[v]
        assert average_clustering_coefficient(g) == total / g.node_count

    def test_average_empty_graph(self):
        with pytest.raises(ValueError):
            average_clustering_coefficient(Graph([]))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_coefficients_in_unit_interval(self, seed):
        g = er_graph(30, 0.3, seed=seed)
        assert 0.0 <= average_clustering_coefficient(g) <= 1.0
