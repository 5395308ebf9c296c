"""Triangle enumeration and S/T adjacency-factor census.

The adjacency factor of an edge counts the triangles sitting on it. The
adjacency factor of a triangle counts outside nodes adjacent to exactly two
of its vertices: such a node flanks the triangle with a peripheral triangle
and, lacking the third link, does not close a quad. Nodes adjacent to all
three vertices are excluded.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Sequence

import numpy as np

from .graph import Graph

Triangle = tuple[int, int, int]

KINDS = ("s", "t")


@dataclass
class AdjacencyCensus:
    """One adjacency factor per unit: edges for kind "s", triangles for kind "t"."""

    kind: str
    units: list[tuple[int, ...]]
    factors: np.ndarray

    def __len__(self) -> int:
        return len(self.units)


@dataclass
class DistributionSeries:
    """Adjacency-factor histogram with normalized frequencies."""

    support: np.ndarray
    counts: np.ndarray
    freq: np.ndarray

    def total_units(self) -> int:
        return int(self.counts.sum())

    def restrict(self, min_support: float) -> tuple[np.ndarray, np.ndarray]:
        """(support, freq) at support >= min_support, without renormalizing."""
        mask = self.support >= min_support
        return self.support[mask].astype(float), self.freq[mask]


def _normalize_kind(kind: str) -> str:
    k = kind.lower()
    if k not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    return k


def enumerate_triangles(graph: Graph) -> list[Triangle]:
    """All triangles, each once, as node triples sorted ascending.

    Degree-ordered forward intersection: every edge is oriented from the
    lower-ranked endpoint, so each triangle is found at exactly one edge.
    """
    sets = graph.neighbor_sets()
    n = len(sets)
    order = sorted(range(n), key=lambda v: (len(sets[v]), v))
    rank = [0] * n
    for position, v in enumerate(order):
        rank[v] = position
    forward = [frozenset(u for u in sets[v] if rank[u] > rank[v]) for v in range(n)]

    triangles: list[Triangle] = []
    for v in range(n):
        fv = forward[v]
        for u in fv:
            for w in fv & forward[u]:
                a, b, c = sorted((v, u, w))
                triangles.append((a, b, c))
    triangles.sort()
    return triangles


def s_adjacency_factor(graph: Graph, u: int, v: int) -> int:
    """Number of triangles sitting on edge (u, v): the common-neighbor count."""
    if not graph.has_edge(u, v):
        raise ValueError(f"({u}, {v}) is not an edge")
    sets = graph.neighbor_sets()
    return len(sets[u] & sets[v])


def _t_factor(sets: Sequence[frozenset[int]], a: int, b: int, c: int) -> int:
    """T factor of triangle (a, b, c) from the graph's neighbor sets."""
    sa, sb, sc = sets[a], sets[b], sets[c]
    common_ab = sa & sb
    # each pair's common neighbors include the third vertex; triple-adjacent
    # nodes appear in all three pair sets and must not count at all
    triple = len(common_ab & sc)
    return len(common_ab) + len(sb & sc) + len(sc & sa) - 3 - 3 * triple


def t_adjacency_factor(graph: Graph, triangle: Sequence[int]) -> int:
    """Number of outside nodes adjacent to exactly two of the triangle's vertices."""
    a, b, c = triangle
    if len({a, b, c}) != 3 or not (
        graph.has_edge(a, b) and graph.has_edge(b, c) and graph.has_edge(a, c)
    ):
        raise ValueError(f"({a}, {b}, {c}) is not a triangle")
    return _t_factor(graph.neighbor_sets(), a, b, c)


def census(graph: Graph, kind: str) -> AdjacencyCensus:
    """Adjacency factors for every edge (kind "s") or every triangle (kind "t")."""
    k = _normalize_kind(kind)
    sets = graph.neighbor_sets()
    if k == "s":
        units: list[tuple[int, ...]] = []
        factors: list[int] = []
        for u, v in graph.edges():
            units.append((u, v))
            factors.append(len(sets[u] & sets[v]))
        return AdjacencyCensus(kind="s", units=units, factors=np.asarray(factors, dtype=np.int64))

    triangles = enumerate_triangles(graph)
    factors = [_t_factor(sets, a, b, c) for a, b, c in triangles]
    return AdjacencyCensus(kind="t", units=triangles, factors=np.asarray(factors, dtype=np.int64))


def to_distribution(c: AdjacencyCensus) -> DistributionSeries:
    """Group factors into an ascending-support series with normalized frequencies.

    Zero-factor units stay in the total, so frequencies sum to 1 over the
    whole census.
    """
    if len(c) == 0:
        raise ValueError("empty census")
    support, counts = np.unique(c.factors, return_counts=True)
    freq = counts / counts.sum()
    return DistributionSeries(support=support, counts=counts, freq=freq)


def write_distribution_csv(series: DistributionSeries, target: str | Path | IO[str]) -> None:
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8", newline="") as handle:
            write_distribution_csv(series, handle)
        return
    writer = csv.writer(target)
    writer.writerow(["factor", "count", "freq"])
    for x, count, f in zip(series.support, series.counts, series.freq):
        writer.writerow([int(x), int(count), repr(float(f))])


def read_distribution_csv(source: str | Path | IO[str]) -> DistributionSeries:
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8", newline="") as handle:
            return read_distribution_csv(handle)
    reader = csv.reader(source)
    header = next(reader, None)
    if header is None or [h.strip() for h in header[:3]] != ["factor", "count", "freq"]:
        raise ValueError('expected header "factor,count,freq"')
    support, counts, freq = [], [], []
    for row in reader:
        if not row:
            continue
        try:
            x, count, f = int(row[0]), int(row[1]), float(row[2])
        except (IndexError, ValueError):
            raise ValueError(f"line {reader.line_num}: expected factor,count,freq, got {row}") from None
        if not 0.0 <= f < float("inf"):  # also rejects NaN
            raise ValueError(f"line {reader.line_num}: freq must be finite and nonnegative, got {row[2]}")
        support.append(x)
        counts.append(count)
        freq.append(f)
    if not support:
        raise ValueError("empty distribution")
    if any(b <= a for a, b in zip(support, support[1:])):
        raise ValueError("support must be strictly ascending")
    return DistributionSeries(
        support=np.asarray(support, dtype=np.int64),
        counts=np.asarray(counts, dtype=np.int64),
        freq=np.asarray(freq, dtype=float),
    )


def write_census_csv(c: AdjacencyCensus, target: str | Path | IO[str]) -> None:
    """Per-unit dump: "u,v,factor" rows for kind "s", "a,b,c,factor" for kind "t"."""
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8", newline="") as handle:
            write_census_csv(c, handle)
        return
    writer = csv.writer(target)
    writer.writerow(["u", "v", "factor"] if c.kind == "s" else ["a", "b", "c", "factor"])
    for unit, factor in zip(c.units, c.factors):
        writer.writerow([*unit, int(factor)])
