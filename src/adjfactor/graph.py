"""Undirected simple graph type, edge-list ingestion, and clustering coefficients."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence


class ParseError(ValueError):
    """An edge-list line could not be parsed. Carries the 1-based line number."""

    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


@dataclass(frozen=True)
class IngestReport:
    """Audit record of one edge-list ingestion."""

    lines_read: int
    self_loops_dropped: int
    duplicates_dropped: int
    nodes: int
    edges: int

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(asdict(self), indent=indent, sort_keys=True)


class Graph:
    """Immutable undirected simple graph with dense node ids 0..n-1.

    Adjacency is held once, as one frozenset of neighbors per node, and
    `neighbor_sets()` returns it. The constructor takes one collection of
    neighbor ids per node (a repeated id counts once) and rejects ids out of
    range, self-loops and asymmetric adjacency in O(E). `neighbors(v)` and
    `edges()` give ascending order. Instances are safe for concurrent reads;
    all mutation happens before construction.
    """

    __slots__ = ("_adjacency", "_edge_count")

    def __init__(self, adjacency: Sequence[Iterable[int]]):
        adj = tuple(frozenset(neighbors) for neighbors in adjacency)
        n = len(adj)
        degree_sum = 0
        for v, neighbors in enumerate(adj):
            if v in neighbors:
                raise ValueError(f"self-loop at node {v}")
            for u in neighbors:
                if not 0 <= u < n:
                    raise ValueError(f"neighbor {u} of node {v} out of range")
                if v not in adj[u]:
                    raise ValueError(f"node {u} is a neighbor of {v} but not vice versa")
            degree_sum += len(neighbors)
        self._adjacency = adj
        self._edge_count = degree_sum // 2

    @classmethod
    def from_edges(cls, edges: Iterable[tuple[int, int]], node_count: int | None = None) -> "Graph":
        """Build a graph from (u, v) pairs.

        Raises ValueError on self-loops or repeated edges; use
        :func:`parse_edge_list` for inputs that need cleaning.
        """
        seen: set[tuple[int, int]] = set()
        max_id = -1
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop ({u}, {v})")
            if u < 0 or v < 0:
                raise ValueError(f"negative node id in edge ({u}, {v})")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)
            max_id = max(max_id, u, v)
        n = max_id + 1 if node_count is None else node_count
        if n < max_id + 1:
            raise ValueError(f"node_count={n} too small for edge endpoint {max_id}")
        return cls(_neighbor_lists(seen, n))

    @property
    def node_count(self) -> int:
        return len(self._adjacency)

    @property
    def edge_count(self) -> int:
        return self._edge_count

    def degree(self, v: int) -> int:
        return len(self._adjacency[v])

    def degrees(self) -> tuple[int, ...]:
        return tuple(len(neighbors) for neighbors in self._adjacency)

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Neighbors of v in ascending order."""
        return tuple(sorted(self._adjacency[v]))

    def neighbor_sets(self) -> tuple[frozenset[int], ...]:
        """Per-node neighbor sets: the graph's own adjacency."""
        return self._adjacency

    def has_edge(self, u: int, v: int) -> bool:
        n = self.node_count
        return 0 <= u < n and 0 <= v < n and v in self._adjacency[u]

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as (u, v) with u < v, in ascending order."""
        for u, neighbors in enumerate(self._adjacency):
            for v in sorted(neighbors):
                if v > u:
                    yield (u, v)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adjacency == other._adjacency

    def __hash__(self) -> int:
        return hash(self._adjacency)

    def __repr__(self) -> str:
        return f"Graph(nodes={self.node_count}, edges={self.edge_count})"


def _neighbor_lists(pairs: Iterable[tuple[int, int]], node_count: int) -> list[list[int]]:
    """Per-node neighbor lists of nodes 0..node_count-1 from distinct undirected pairs."""
    adjacency: list[list[int]] = [[] for _ in range(node_count)]
    for u, v in pairs:
        adjacency[u].append(v)
        adjacency[v].append(u)
    return adjacency


DEFAULT_COMMENT_PREFIXES = ("#", "%")


def parse_edge_list(
    source: str | Iterable[str],
    comment_prefixes: Sequence[str] = DEFAULT_COMMENT_PREFIXES,
    extra_delimiters: str = ",;",
) -> tuple[Graph, IngestReport]:
    """Parse whitespace-separated edge-list text into a simple undirected graph.

    The first two integer tokens of each non-comment line are the edge
    endpoints; extra tokens (timestamps, weights) are ignored. Directed
    duplicates collapse to one edge and self-loops are dropped, both counted
    in the report. Node labels may be arbitrary nonnegative integers and are
    remapped to dense ids in ascending label order.
    """
    if isinstance(source, str):
        lines: Iterable[str] = source.splitlines()
    else:
        lines = source

    pair_set: set[tuple[int, int]] = set()
    labels: set[int] = set()
    lines_read = 0
    self_loops = 0
    duplicates = 0

    for line_number, raw in enumerate(lines, start=1):
        lines_read += 1
        stripped = raw.strip()
        if not stripped or any(stripped.startswith(p) for p in comment_prefixes):
            continue
        for ch in extra_delimiters:
            stripped = stripped.replace(ch, " ")
        tokens = stripped.split()
        if len(tokens) < 2:
            raise ParseError("expected at least two integer columns", line_number)
        endpoints = []
        for token in tokens[:2]:
            try:
                value = int(token)
            except ValueError:
                raise ParseError(f"non-integer token {token!r}", line_number) from None
            if value < 0:
                raise ParseError(f"negative node id {value}", line_number)
            endpoints.append(value)
        u, v = endpoints
        labels.add(u)
        labels.add(v)
        if u == v:
            self_loops += 1
            continue
        key = (u, v) if u < v else (v, u)
        if key in pair_set:
            duplicates += 1
        else:
            pair_set.add(key)

    remap = {label: i for i, label in enumerate(sorted(labels))}
    graph = Graph(_neighbor_lists(((remap[u], remap[v]) for u, v in pair_set), len(remap)))
    report = IngestReport(
        lines_read=lines_read,
        self_loops_dropped=self_loops,
        duplicates_dropped=duplicates,
        nodes=graph.node_count,
        edges=graph.edge_count,
    )
    return graph, report


def load_edge_list(path: str | Path, **kwargs) -> tuple[Graph, IngestReport]:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_edge_list(handle, **kwargs)


def write_edge_list(graph: Graph, target: str | Path | IO[str]) -> None:
    """Write the canonical edge list: one "u v" line per edge, u < v, sorted."""
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8") as handle:
            write_edge_list(graph, handle)
        return
    for u, v in graph.edges():
        target.write(f"{u} {v}\n")


def local_clustering_coefficient(graph: Graph, v: int) -> float:
    """Fraction of v's neighbor pairs that are themselves connected.

    Degree-0 and degree-1 nodes return 0 so the all-node average stays
    well-defined.
    """
    if not 0 <= v < graph.node_count:
        raise ValueError(f"node {v} not in graph")
    sets = graph.neighbor_sets()
    own = sets[v]
    k = len(own)
    if k < 2:
        return 0.0
    links = sum(len(own & sets[u]) for u in own) // 2
    return links / (k * (k - 1) / 2)


def average_clustering_coefficient(graph: Graph) -> float:
    """Arithmetic mean of the local clustering coefficient over all nodes."""
    if graph.node_count == 0:
        raise ValueError("empty graph")
    total = 0.0
    for v in range(graph.node_count):
        total += local_clustering_coefficient(graph, v)
    return total / graph.node_count
