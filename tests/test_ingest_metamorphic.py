"""Metamorphic properties of ingestion: input edits whose effect on the graph,
the ingest report and the S/T census is known without an oracle."""

from dataclasses import replace

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from adjfactor import average_clustering_coefficient, census, parse_edge_list  # noqa: E402

# edge lines over a few labels, at least one of them not a self-loop
PAIRS = st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), min_size=1, max_size=40).filter(
    lambda pairs: any(u != v for u, v in pairs)
)


def edge_text(pairs):
    return "".join(f"{u} {v}\n" for u, v in pairs)


def census_distributions(graph):
    """The multiset of S factors and of T factors."""
    return tuple(sorted(census(graph, kind).factors.tolist()) for kind in "st")


@settings(max_examples=100, deadline=None, database=None)
@given(pairs=PAIRS, data=st.data())
def test_relabelling_leaves_census_distributions_unchanged(pairs, data):
    labels = sorted({label for pair in pairs for label in pair})
    size = len(labels)
    targets = data.draw(st.lists(st.integers(0, 2**70), min_size=size, max_size=size, unique=True))
    relabel = dict(zip(labels, targets))
    graph, report = parse_edge_list(edge_text(pairs))
    moved, moved_report = parse_edge_list(edge_text((relabel[u], relabel[v]) for u, v in pairs))
    assert moved_report == report
    assert census_distributions(moved) == census_distributions(graph)


@settings(max_examples=100, deadline=None, database=None)
@given(pairs=PAIRS, data=st.data())
def test_duplicated_or_reversed_lines_change_only_line_and_duplicate_counts(pairs, data):
    graph, report = parse_edge_list(edge_text(pairs))
    lines = [(v, u) if data.draw(st.booleans()) else (u, v) for u, v in pairs]  # reversed in place
    edges = [pair for pair in pairs if pair[0] != pair[1]]
    copies = data.draw(st.lists(st.sampled_from(edges), max_size=10))
    for u, v in copies:  # each a duplicate, in either direction, anywhere
        at = data.draw(st.integers(0, len(lines)))
        lines.insert(at, (v, u) if data.draw(st.booleans()) else (u, v))
    edited, edited_report = parse_edge_list(edge_text(lines))
    assert edited == graph
    expected = replace(
        report,
        lines_read=report.lines_read + len(copies),
        duplicates_dropped=report.duplicates_dropped + len(copies),
    )
    assert edited_report == expected


@settings(max_examples=100, deadline=None, database=None)
@given(pairs=PAIRS, data=st.data())
def test_labels_only_in_self_loops_add_isolated_nodes(pairs, data):
    graph, report = parse_edge_list(edge_text(pairs))
    lone = data.draw(st.lists(st.integers(13, 40), min_size=1, max_size=5, unique=True))
    lines = list(pairs)
    for label in lone:
        lines.insert(data.draw(st.integers(0, len(lines))), (label, label))
    grown, grown_report = parse_edge_list(edge_text(lines))
    n, k = graph.node_count, len(lone)
    assert grown_report == replace(
        report,
        lines_read=report.lines_read + k,
        self_loops_dropped=report.self_loops_dropped + k,
        nodes=n + k,
    )
    assert grown.edge_count == graph.edge_count
    assert census_distributions(grown) == census_distributions(graph)
    expected_cc = average_clustering_coefficient(graph) * n / (n + k)
    assert average_clustering_coefficient(grown) == pytest.approx(expected_cc, rel=1e-12, abs=0)
