"""Triangle enumeration and S/T adjacency-factor census.

The adjacency factor of an edge counts the triangles sitting on it. The
adjacency factor of a triangle counts outside nodes adjacent to exactly two
of its vertices: such a node flanks the triangle with a peripheral triangle
and, lacking the third link, does not close a quad. Nodes adjacent to all
three vertices are excluded.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass
from typing import IO, Iterable, Sequence

import numpy as np

from .graph import DataError, Graph, _closed_wedges

Triangle = tuple[int, int, int]


@dataclass
class AdjacencyCensus:
    """One adjacency factor per unit: edges for kind "s", triangles for kind "t".

    units is an int64 array of rows, shape (E, 2) or (T, 3).
    """

    kind: str
    units: np.ndarray
    factors: np.ndarray

    def __len__(self) -> int:
        return len(self.units)


@dataclass
class DistributionSeries:
    """Adjacency-factor histogram with normalized frequencies."""

    support: np.ndarray
    counts: np.ndarray
    freq: np.ndarray

    def restrict(self, min_support: float) -> tuple[np.ndarray, np.ndarray]:
        """(support, freq) at support >= min_support, without renormalizing."""
        mask = self.support >= min_support
        return self.support[mask].astype(float), self.freq[mask]


def enumerate_triangles(graph: Graph) -> list[Triangle]:
    """All triangles, each once, as node triples sorted ascending, in ascending order."""
    wedges = _closed_wedges(graph)
    triangles, _ = wedges.sorted_triangles(wedges.forward_rows()[wedges.first])
    return [tuple(t) for t in triangles.tolist()]


def t_adjacency_factor(graph: Graph, triangle: Sequence[int]) -> int:
    """Number of outside nodes adjacent to exactly two of the triangle's vertices."""
    a, b, c = triangle
    if len({a, b, c}) != 3 or not (
        graph.has_edge(a, b) and graph.has_edge(b, c) and graph.has_edge(a, c)
    ):
        raise ValueError(f"({a}, {b}, {c}) is not a triangle")
    _, hits = np.unique(graph.neighbors(a) + graph.neighbors(b) + graph.neighbors(c), return_counts=True)
    # each vertex is adjacent to exactly the other two, so it is counted and taken off
    return int(np.count_nonzero(hits == 2)) - 3


def census(graph: Graph, kind: str) -> AdjacencyCensus:
    """Adjacency factors for every edge (kind "s") or every triangle (kind "t").

    Both read the closed forward wedges of `graph._closed_wedges`, one per
    triangle, and the rows of its three edges. The S factor of an edge is
    its common-neighbor count: the triangles on it. The T factor of triangle
    abc is s_ab + s_bc + s_ca - 3 - 3 K4(abc): each pair's common neighbors
    include the third vertex, and a node adjacent to all three (one per K4 on
    the triangle) sits in all three pair counts but must not count at all.
    Units are int64 rows: (u, v) in `Graph.edges()` order, or (a, b, c)
    ascending, in ascending order.
    """
    if kind not in ("s", "t"):
        raise ValueError(f'kind must be "s" or "t", got {kind!r}')
    wedges = _closed_wedges(graph)
    rows = wedges.forward_rows()
    xy, xz, yz = rows[wedges.first], rows[wedges.second], wedges.closing
    common = np.bincount(np.concatenate((xy, xz, yz)), minlength=len(rows))
    if kind == "s":
        return AdjacencyCensus(kind="s", units=np.column_stack((wedges.u, wedges.v)), factors=common)
    factors = common[xy] + common[xz] + common[yz] - 3 - 3 * wedges.clique_counts(rows)
    triangles, order = wedges.sorted_triangles(xy)
    return AdjacencyCensus(kind="t", units=triangles, factors=factors[order])


def to_distribution(c: AdjacencyCensus) -> DistributionSeries:
    """Group factors into an ascending-support series with normalized frequencies.

    Zero-factor units stay in the total, so frequencies sum to 1 over the
    whole census.
    """
    if len(c) == 0:
        raise DataError(f"no {'triangles' if c.kind == 't' else 'edges'} in graph")
    support, counts = np.unique(c.factors, return_counts=True)
    freq = counts / counts.sum()
    return DistributionSeries(support=support, counts=counts, freq=freq)


def _write_csv(target: str | os.PathLike | IO[str], header: list[str], rows: Iterable[Sequence]) -> None:
    """Write header and rows in csv's default dialect, whose rows end in CR LF,
    to a path (a str or os.PathLike, opened as UTF-8) or to an open text handle."""
    if isinstance(target, (str, os.PathLike)):
        with open(target, "w", encoding="utf-8", newline="") as handle:
            _write_csv(handle, header, rows)
        return
    writer = csv.writer(target)
    writer.writerow(header)
    writer.writerows(rows)


def write_distribution_csv(series: DistributionSeries, target: str | os.PathLike | IO[str]) -> None:
    rows = ([int(x), int(count), repr(float(f))] for x, count, f in zip(series.support, series.counts, series.freq))
    _write_csv(target, ["factor", "count", "freq"], rows)


def read_distribution_csv(source: str | os.PathLike | IO[str]) -> DistributionSeries:
    """Read a "factor,count,freq" CSV. A file that cannot be opened or read, or
    is not UTF-8 text, raises `DataError`, as malformed content does."""
    if isinstance(source, (str, os.PathLike)):
        try:
            with open(source, "r", encoding="utf-8", newline="") as handle:
                return read_distribution_csv(handle)
        except (OSError, UnicodeDecodeError) as exc:
            raise DataError(str(exc)) from exc
    reader = csv.reader(source)
    header = next(reader, None)
    if header is None or [h.strip() for h in header[:3]] != ["factor", "count", "freq"]:
        raise DataError('expected header "factor,count,freq"')
    support, counts, freq = [], [], []
    for row in reader:
        if not row:
            continue
        try:
            x, count, f = int(row[0]), int(row[1]), float(row[2])
        except (IndexError, ValueError):
            raise DataError(f"line {reader.line_num}: expected factor,count,freq, got {row}") from None
        if not 0.0 <= f < float("inf"):  # also rejects NaN
            raise DataError(f"line {reader.line_num}: freq must be finite and nonnegative, got {row[2]}")
        support.append(x)
        counts.append(count)
        freq.append(f)
    if not support:
        raise DataError("empty distribution")
    if any(b <= a for a, b in zip(support, support[1:])):
        raise DataError("support must be strictly ascending")
    return DistributionSeries(
        support=np.asarray(support, dtype=np.int64),
        counts=np.asarray(counts, dtype=np.int64),
        freq=np.asarray(freq, dtype=float),
    )


def write_census_csv(c: AdjacencyCensus, target: str | os.PathLike | IO[str]) -> None:
    """Per-unit dump: "u,v,factor" rows for kind "s", "a,b,c,factor" for kind "t"."""
    header = ["u", "v", "factor"] if c.kind == "s" else ["a", "b", "c", "factor"]
    rows = ([*unit, factor] for unit, factor in zip(c.units.tolist(), c.factors.tolist()))
    _write_csv(target, header, rows)
