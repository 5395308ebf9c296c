import io

import numpy as np
import pytest

try:
    from hypothesis import example, given, settings
    from hypothesis import strategies as st
except ImportError:  # a test extra; only the rank-order fuzz below needs it
    st = None

from adjfactor import (
    Graph,
    GrowthConfig,
    average_clustering_coefficient,
    census,
    enumerate_triangles,
    generate_pa_tf,
    t_adjacency_factor,
    to_distribution,
    write_distribution_csv,
)
from adjfactor import graph as graph_module
from adjfactor.census import read_distribution_csv, write_census_csv
from adjfactor.graph import _closed_wedges
from helpers import (
    brute_s_factor,
    brute_t_factor,
    brute_triangles,
    complete_graph,
    cycle_graph,
    er_graph,
    set_t_factor,
)


class TestTriangles:
    def test_k4_has_four(self):
        assert len(enumerate_triangles(complete_graph(4))) == 4

    def test_five_cycle_has_none(self):
        assert enumerate_triangles(cycle_graph(5)) == []

    def test_matches_exhaustive_scan(self):
        g = er_graph(20, 0.3, seed=20)
        assert enumerate_triangles(g) == brute_triangles(g)

    def test_canonical_and_unique(self):
        g = er_graph(25, 0.35, seed=4)
        triangles = enumerate_triangles(g)
        assert all(a < b < c for a, b, c in triangles)
        assert len(set(triangles)) == len(triangles)


def edge_factor(graph: Graph, u: int, v: int) -> int:
    """The S census factor of edge (u, v), u < v."""
    c = census(graph, "s")
    (row,) = np.flatnonzero((c.units == (u, v)).all(axis=1))
    return int(c.factors[row])


class TestEdgeFactor:
    def test_k3_edge(self):
        assert edge_factor(complete_graph(3), 0, 1) == 1

    def test_three_flanking_triangles(self):
        # central edge 0-1 with three distinct apex nodes
        g = Graph.from_edges([(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (0, 4), (1, 4)])
        assert edge_factor(g, 0, 1) == 3

    def test_k4_edge(self):
        assert edge_factor(complete_graph(4), 0, 1) == 2

    def test_zero_for_triangle_free_edge(self):
        assert edge_factor(cycle_graph(5), 0, 1) == 0


class TestTriangleFactor:
    def test_pendant_triangle_counts_once(self):
        g = Graph.from_edges([(0, 1), (1, 2), (0, 2), (0, 3), (1, 3)])
        assert t_adjacency_factor(g, (0, 1, 2)) == 1

    def test_quad_closing_node_excluded(self):
        assert t_adjacency_factor(complete_graph(4), (0, 1, 2)) == 0

    def test_not_a_triangle_rejected(self):
        with pytest.raises(ValueError):
            t_adjacency_factor(cycle_graph(5), (0, 1, 2))

    def test_matches_exhaustive_two_of_three_scan(self):
        g = er_graph(15, 0.4, seed=15)
        for tri in enumerate_triangles(g):
            assert t_adjacency_factor(g, tri) == brute_t_factor(g, tri)

    def test_two_flanks_on_same_edge_both_count(self):
        g = Graph.from_edges([(0, 1), (1, 2), (0, 2), (0, 3), (1, 3), (0, 4), (1, 4)])
        assert t_adjacency_factor(g, (0, 1, 2)) == 2


class TestCensus:
    def test_k4_edges(self):
        c = census(complete_graph(4), "s")
        assert len(c) == 6
        assert (c.factors == 2).all()

    def test_k4_triangles(self):
        c = census(complete_graph(4), "t")
        assert len(c) == 4
        assert (c.factors == 0).all()

    @pytest.mark.parametrize("kind", ["S", "x"])
    def test_unknown_kind_rejected(self, kind):
        with pytest.raises(ValueError, match="kind"):
            census(complete_graph(4), kind)

    def test_triangle_free_graph_yields_empty_t_census(self):
        assert len(census(cycle_graph(5), "t")) == 0

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_edge_factors_match_oracle(self, seed):
        g = er_graph(22, 0.3, seed=seed)
        c = census(g, "s")
        for (u, v), factor in zip(c.units, c.factors):
            assert factor == brute_s_factor(g, u, v)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_triangle_factors_match_oracle(self, seed):
        g = er_graph(18, 0.4, seed=seed)
        c = census(g, "t")
        for tri, factor in zip(c.units, c.factors):
            assert factor == brute_t_factor(g, tri)

    def test_edge_factor_sum_is_three_times_triangle_count(self):
        g = er_graph(26, 0.3, seed=8)
        assert census(g, "s").factors.sum() == 3 * len(enumerate_triangles(g))

    def test_invariant_under_relabeling(self):
        g = er_graph(16, 0.35, seed=6)
        rng = np.random.default_rng(99)
        perm = rng.permutation(g.node_count)
        relabeled = Graph.from_edges(
            [(int(perm[u]), int(perm[v])) for u, v in g.edges()], node_count=g.node_count
        )
        for kind in ("s", "t"):
            assert sorted(census(g, kind).factors) == sorted(census(relabeled, kind).factors)

    def test_factor_bounded_by_edge_sharing_triangles(self):
        g = er_graph(16, 0.45, seed=12)
        triangles = set(enumerate_triangles(g))
        for tri in triangles:
            a, b, c = tri
            sharing = sum(
                1
                for other in triangles
                if other != tri and len(set(other) & {a, b, c}) == 2
            )
            factor = t_adjacency_factor(g, tri)
            assert factor <= sharing
            triple = sum(
                1
                for w in range(g.node_count)
                if w not in tri and all(g.has_edge(w, v) for v in tri)
            )
            assert (factor == sharing) == (triple == 0)


class TestLargeGraphCrossCheck:
    """Census and average CC against networkx on graphs too big for brute force."""

    @pytest.mark.parametrize("source", ["pa_tf_25k_edges", "powerlaw_cluster_100k_edges"])
    def test_matches_networkx(self, source):
        nx = pytest.importorskip("networkx")
        if source == "pa_tf_25k_edges":
            g = generate_pa_tf(GrowthConfig(n=5000, n0=5, m=5, p_t=0.6, seed=3))
            h = nx.Graph(g.edges())
            triangles = nx.triangles(h)
            expected_cc = nx.average_clustering(h)
        else:
            h = nx.powerlaw_cluster_graph(20000, 5, 0.3, seed=7)
            g = Graph.from_edges(h.edges(), node_count=h.number_of_nodes())
            triangles = nx.triangles(h)
            # nx.average_clustering takes about 2 s here: its definition on networkx's counts
            expected_cc = sum(
                2 * triangles[v] / (k * (k - 1)) if k > 1 else 0.0 for v, k in h.degree()
            ) / h.number_of_nodes()
        assert g.node_count == h.number_of_nodes() and g.edge_count == h.number_of_edges()
        s, t = census(g, "s"), census(g, "t")
        assert 3 * len(t) == sum(triangles.values())
        sets = [set(h[v]) for v in range(g.node_count)]
        assert s.factors.tolist() == [len(sets[u] & sets[v]) for u, v in s.units.tolist()]
        assert abs(average_clustering_coefficient(g) - expected_cc) <= 1e-12
        assert t.factors.tolist() == [set_t_factor(sets, a, b, c) for a, b, c in t.units.tolist()]


def _x_positions(g: Graph) -> set[int]:
    """Where each triangle's lowest-ranked node x falls by id: 0 lowest, 1 middle, 2 highest."""
    x, y, z = _closed_wedges(g).corners()
    return set(((x > y).astype(int) + (x > z)).tolist())


# one triangle per x position: pendant edges make the other two corners outrank
# x, whose degree is then lowest (a tie with no pendant goes to the lowest id)
X_AT_EVERY_POSITION = Graph.from_edges(
    [(0, 1), (1, 2), (0, 2), (1, 9), (2, 10)]
    + [(3, 4), (4, 5), (3, 5), (3, 11), (5, 12)]
    + [(6, 7), (7, 8), (6, 8), (6, 13), (7, 14)]
)


def test_fixture_puts_x_at_every_position():
    assert _x_positions(X_AT_EVERY_POSITION) == {0, 1, 2}


def _assert_matches_brute_oracles(g: Graph) -> None:
    triangles = brute_triangles(g)
    per_node = [0] * g.node_count
    for triangle in triangles:
        for v in triangle:
            per_node[v] += 1
    total = 0.0
    for v in range(g.node_count):
        k = g.degree(v)
        total += per_node[v] / (k * (k - 1) / 2) if k >= 2 else 0.0
    assert average_clustering_coefficient(g) == total / g.node_count

    s = census(g, "s")
    assert s.units.tolist() == [list(e) for e in g.edges()]
    assert s.factors.tolist() == [brute_s_factor(g, u, v) for u, v in g.edges()]
    t = census(g, "t")
    assert enumerate_triangles(g) == triangles
    assert t.units.tolist() == [list(tri) for tri in triangles]
    assert t.factors.tolist() == [brute_t_factor(g, tri) for tri in triangles]


def _fresh(g: Graph) -> Graph:
    """An equal graph built from g's edges, with no kernel computed yet."""
    return Graph.from_edges(g.edges(), node_count=g.node_count)


def _statistic(g: Graph, name: str) -> tuple[bytes, ...]:
    """Raw bytes of one triangle statistic of g: average CC ("cc"), or a census's units and factors."""
    if name == "cc":
        return (np.float64(average_clustering_coefficient(g)).tobytes(),)
    c = census(g, name)
    return c.units.tobytes(), c.factors.tobytes()


if st is not None:

    @st.composite
    def rank_order_graphs(draw) -> Graph:
        """Graphs whose (degree, id) rank order and id order disagree.

        A clique (K5-K8), a star with chords among its leaves, a bipartite
        (triangle-free) graph or a sparse random graph, with isolated nodes
        added and every id relabelled, so hubs land at high ids and degree
        ties are broken by ids in any order.
        """
        shape = draw(st.sampled_from(["clique", "star", "bipartite", "random"]))
        if shape == "clique":
            n = draw(st.integers(5, 8))
            edges = {(u, v) for u in range(n) for v in range(u + 1, n)}
        elif shape == "star":
            n = draw(st.integers(3, 10))
            leaves = st.integers(1, n - 1)
            chords = draw(st.sets(st.tuples(leaves, leaves).filter(lambda e: e[0] < e[1]), max_size=8))
            edges = {(0, leaf) for leaf in range(1, n)} | chords
        elif shape == "bipartite":
            left, right = draw(st.integers(1, 5)), draw(st.integers(1, 5))
            n = left + right
            edges = draw(st.sets(st.tuples(st.integers(0, left - 1), st.integers(left, n - 1)), max_size=15))
        else:
            n = draw(st.integers(3, 12))
            ids = st.integers(0, n - 1)
            edges = draw(st.sets(st.tuples(ids, ids).filter(lambda e: e[0] < e[1]), max_size=30))
        n += draw(st.integers(0, 3))  # isolated nodes
        label = draw(st.permutations(range(n)))
        return Graph.from_edges([(label[u], label[v]) for u, v in edges], node_count=n)

    @settings(max_examples=200, deadline=None)
    @given(rank_order_graphs())
    @example(X_AT_EVERY_POSITION)
    @example(complete_graph(8))
    def test_rank_order_fuzz_matches_brute_oracles(g):
        _assert_matches_brute_oracles(g)

    @settings(max_examples=100, deadline=None)
    @given(rank_order_graphs(), st.permutations(["cc", "s", "t"]))
    def test_any_call_order_matches_a_fresh_graph(g, order):
        g = _fresh(g)  # an @example graph may hold a kernel from another test
        for name in order:
            assert _statistic(g, name) == _statistic(_fresh(g), name), name


@pytest.fixture
def kernel_runs(monkeypatch) -> list[Graph]:
    """Every graph the closed-wedge kernel is computed for, once per computation."""
    runs = []
    forward = graph_module._forward

    def counted(g):
        runs.append(g)
        return forward(g)

    monkeypatch.setattr(graph_module, "_forward", counted)
    return runs


class TestKernelKeptOnGraph:
    """The closed-wedge kernel runs once per graph, and what it keeps cannot leak or alias."""

    def test_every_statistic_of_one_graph_shares_one_pass(self, kernel_runs):
        g = er_graph(30, 0.3, seed=5)
        average_clustering_coefficient(g)
        census(g, "s")
        census(g, "t")
        enumerate_triangles(g)
        average_clustering_coefficient(g)
        assert [id(h) for h in kernel_runs] == [id(g)]

    def test_each_graph_runs_its_own_pass(self, kernel_runs):
        pilots = [generate_pa_tf(GrowthConfig(n=120, n0=3, m=2, p_t=0.5, seed=seed)) for seed in (1, 2)]
        for _ in range(2):
            for pilot in pilots:
                average_clustering_coefficient(pilot)
                census(pilot, "t")
        assert [id(g) for g in kernel_runs] == [id(g) for g in pilots]

    def test_kept_arrays_are_read_only(self):
        wedges = _closed_wedges(er_graph(30, 0.3, seed=5))
        assert len(wedges.first) > 0
        for array in wedges:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[:1] = 0

    def test_writing_into_a_census_changes_no_later_result(self):
        g = er_graph(30, 0.3, seed=5)
        expected = {name: _statistic(_fresh(g), name) for name in ("cc", "s", "t")}
        for kind in ("s", "t"):
            c = census(g, kind)
            c.units[:] = -1
            c.factors[:] = -1
        assert {name: _statistic(g, name) for name in expected} == expected


class TestDistribution:
    def test_grouping_example(self):
        from adjfactor.census import AdjacencyCensus

        c = AdjacencyCensus(kind="s", units=[(0, i + 1) for i in range(6)],
                            factors=np.array([0, 0, 1, 1, 1, 3]))
        series = to_distribution(c)
        assert list(series.support) == [0, 1, 3]
        assert series.freq == pytest.approx([1 / 3, 1 / 2, 1 / 6])

    def test_k4_series(self):
        series = to_distribution(census(complete_graph(4), "s"))
        assert list(series.support) == [2]
        assert series.freq == pytest.approx([1.0])

    def test_single_edge_graph(self):
        series = to_distribution(census(Graph.from_edges([(0, 1)]), "s"))
        assert list(series.support) == [0]
        assert series.freq == pytest.approx([1.0])

    def test_empty_census_rejected(self):
        with pytest.raises(ValueError):
            to_distribution(census(cycle_graph(5), "t"))

    def test_frequencies_sum_to_one(self):
        series = to_distribution(census(er_graph(30, 0.3, seed=3), "s"))
        assert abs(series.freq.sum() - 1.0) < 1e-12
        assert series.counts.sum() == er_graph(30, 0.3, seed=3).edge_count

    def test_csv_round_trip(self):
        series = to_distribution(census(er_graph(24, 0.3, seed=7), "s"))
        buffer = io.StringIO()
        write_distribution_csv(series, buffer)
        buffer.seek(0)
        back = read_distribution_csv(buffer)
        assert list(back.support) == list(series.support)
        assert list(back.counts) == list(series.counts)
        assert back.freq == pytest.approx(series.freq, abs=0)

    # the writers use csv's default dialect, so every row ends in "\r\n", to a path or to a handle alike
    def test_distribution_csv_bytes(self, tmp_path):
        series = to_distribution(census(complete_graph(4), "s"))
        buffer = io.StringIO()
        write_distribution_csv(series, buffer)
        assert buffer.getvalue() == "factor,count,freq\r\n2,6,1.0\r\n"
        write_distribution_csv(series, tmp_path / "k4.csv")
        assert (tmp_path / "k4.csv").read_bytes() == b"factor,count,freq\r\n2,6,1.0\r\n"

    def test_per_unit_dump_headers(self, tmp_path):
        buffer = io.StringIO()
        write_census_csv(census(complete_graph(4), "s"), buffer)
        assert buffer.getvalue() == "u,v,factor\r\n0,1,2\r\n0,2,2\r\n0,3,2\r\n1,2,2\r\n1,3,2\r\n2,3,2\r\n"
        write_census_csv(census(complete_graph(4), "t"), tmp_path / "k4.csv")
        assert (tmp_path / "k4.csv").read_bytes() == b"a,b,c,factor\r\n0,1,2,0\r\n0,1,3,0\r\n0,2,3,0\r\n1,2,3,0\r\n"
