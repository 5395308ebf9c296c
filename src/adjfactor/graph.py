"""Undirected simple graph (CSR), edge-list ingestion, closed-wedge triangle kernel, clustering coefficients."""

from __future__ import annotations

import operator
import os
from bisect import bisect_left
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Iterator, NamedTuple, NoReturn

import numpy as np


class DataError(ValueError):
    """The input network cannot be analysed: it is unreadable, malformed or has nothing to count."""


class ParseError(DataError):
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


class Graph:
    """Immutable undirected simple graph with dense node ids 0..n-1.

    Adjacency is held once, in compressed sparse row (CSR) form: the
    neighbors of v are `indices[indptr[v]:indptr[v + 1]]`, in ascending
    order, and both int64 arrays are read-only. Every graph is built from
    unique, in-range, loop-free edge pairs by `_from_pairs`, which checks
    none of this: `from_edges` checks the pairs it is given, the edge-list
    parsers clean theirs, and growth makes them so. `neighbors(v)` and
    `edges()` give ascending order. Instances are safe for concurrent reads.
    One slot is filled lazily: `_wedges` holds the graph's closed-wedge kernel
    once `_closed_wedges` has computed it. Concurrent readers may both compute
    it; the results are equal, and either is kept. A graph stays in the process
    that built it: pickling, copying or hashing one raises TypeError.
    """

    # memoryviews of the CSR arrays: an item read gives a Python int, which keeps
    # the per-call lookups (has_edge, degree, neighbors) free of numpy overhead
    __slots__ = ("_indptr", "_indices", "_wedges")

    @classmethod
    def _from_pairs(cls, u: np.ndarray, v: np.ndarray, n: int) -> "Graph":
        """Graph on n nodes of the undirected pairs (u[i], v[i]): unique, in range, loop-free, unchecked."""
        sources, targets = np.divmod(np.sort(np.concatenate((u * n + v, v * n + u))), n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(sources, minlength=n), out=indptr[1:])
        graph = cls()
        graph._indptr, graph._indices = _frozen_view(indptr), _frozen_view(targets)
        graph._wedges = None
        return graph

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
        pairs = np.array(list(seen), dtype=np.int64).reshape(-1, 2)
        return cls._from_pairs(pairs[:, 0], pairs[:, 1], n)

    @property
    def indptr(self) -> np.ndarray:
        """Row offsets, n + 1 entries (read-only int64 array)."""
        return np.asarray(self._indptr)

    @property
    def indices(self) -> np.ndarray:
        """Neighbor ids, row by row, each row ascending (read-only int64 array)."""
        return np.asarray(self._indices)

    @property
    def node_count(self) -> int:
        return len(self._indptr) - 1

    @property
    def edge_count(self) -> int:
        return len(self._indices) // 2

    def _row(self, v: int) -> slice:
        """Slice of `indices` holding v's neighbors."""
        if not 0 <= v < len(self._indptr) - 1:
            raise IndexError(f"node {v} not in graph")
        return slice(self._indptr[v], self._indptr[v + 1])

    def degree(self, v: int) -> int:
        row = self._row(v)
        return row.stop - row.start

    def degrees(self) -> tuple[int, ...]:
        return tuple(np.diff(self.indptr).tolist())

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Neighbors of v in ascending order."""
        return tuple(self._indices[self._row(v)])

    def has_edge(self, u: int, v: int) -> bool:
        u, v = operator.index(u), operator.index(v)
        indptr, indices = self._indptr, self._indices
        n = len(indptr) - 1
        if not (0 <= u < n and 0 <= v < n):
            return False
        end = indptr[u + 1]
        i = bisect_left(indices, v, indptr[u], end)
        return i < end and indices[i] == v

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as (u, v) with u < v, in ascending order."""
        u, v = _upper_edges(self.indptr, self.indices)
        return zip(u.tolist(), v.tolist())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return np.array_equal(self.indptr, other.indptr) and np.array_equal(self.indices, other.indices)

    def __reduce__(self) -> NoReturn:
        raise TypeError("a Graph stays in the process that built it; send its counts, not the graph")

    def __repr__(self) -> str:
        return f"Graph(nodes={self.node_count}, edges={self.edge_count})"


def _frozen_view(array: np.ndarray) -> memoryview:
    array = np.ascontiguousarray(array, dtype=np.int64)
    array.flags.writeable = False
    return memoryview(array)


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """Distinct values in ascending order (np.unique hashes int64 and is far slower here)."""
    values = np.sort(values)
    distinct = np.ones(len(values), dtype=bool)
    np.not_equal(values[1:], values[:-1], out=distinct[1:])
    return values[distinct]


def _find(keys: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Position of each query in the ascending array keys, or -1 where it is absent."""
    if len(keys) == 0:
        return np.full(len(queries), -1, dtype=np.int64)
    # searching in query order halves the time of a search in random order
    order = np.argsort(queries)
    positions = np.empty(len(queries), dtype=np.int64)
    positions[order] = np.searchsorted(keys, queries[order])
    del order
    np.minimum(positions, len(keys) - 1, out=positions)
    positions[keys[positions] != queries] = -1
    return positions


def _upper_edges(indptr: np.ndarray, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Endpoint arrays (u, v) of every edge with u < v, in ascending order."""
    sources = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
    upper = sources < indices
    return sources[upper], indices[upper]


def _segments(starts: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Concatenated ranges starts[i] .. starts[i] + counts[i] - 1, and the i of each entry."""
    owners = np.repeat(np.arange(len(counts)), counts)
    positions = np.arange(len(owners))
    positions += np.repeat(starts - (np.cumsum(counts) - counts), counts)
    return positions, owners


def _forward(graph: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Rank by (degree, id), and each node's higher-ranked neighbors as a CSR.

    Returns (rank, fptr, fsrc, fdst): forward entry i runs fsrc[i] -> fdst[i],
    and the entries of node x are fptr[x] .. fptr[x + 1] - 1, ids ascending.
    """
    indptr, indices = graph.indptr, graph.indices
    degrees = np.diff(indptr)
    rank = np.empty(len(degrees), dtype=np.int64)
    rank[np.argsort(degrees, kind="stable")] = np.arange(len(degrees))
    sources = np.repeat(np.arange(len(degrees)), degrees)
    forward = rank[sources] < rank[indices]
    fsrc = sources[forward]
    fptr = np.zeros(len(indptr), dtype=np.int64)
    np.cumsum(np.bincount(fsrc, minlength=len(degrees)), out=fptr[1:])
    return rank, fptr, fsrc, indices[forward]


class ClosedWedges(NamedTuple):
    """Every triangle of a graph, once, as a closed forward wedge (x; y, z).

    Each edge runs forward, toward its endpoint of higher (degree, id) rank
    (Chiba & Nishizeki, SIAM J. Comput. 14, 1985), so forward lists stay
    short. A triangle is found at its lowest-ranked node x, as two entries
    x -> y and x -> z of x's forward list, y < z, whose ends y and z are
    joined by an edge.

    u, v: (E,) endpoints of every edge, u < v, in `Graph.edges()` order; an
        edge's row is its position here.
    rank, fsrc, fdst: node ranks and the forward entries, as `_forward`
        returns them.
    first, second: (T,) forward entries x -> y and x -> z of each triangle,
        in ascending (x, y, z) order.
    closing: (T,) row of the edge (y, z).
    """

    u: np.ndarray
    v: np.ndarray
    rank: np.ndarray
    fsrc: np.ndarray
    fdst: np.ndarray
    first: np.ndarray
    second: np.ndarray
    closing: np.ndarray

    def corners(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(x, y, z) of every triangle."""
        return self.fsrc[self.first], self.fdst[self.first], self.fdst[self.second]

    def forward_rows(self) -> np.ndarray:
        """Row of the edge of every forward entry.

        Each edge has one forward entry, and the entries run in ascending
        (source, target) order, so sorting the edges by that key lists their
        rows in entry order.
        """
        n = len(self.rank)
        ahead = self.rank[self.u] < self.rank[self.v]
        return np.argsort(np.where(ahead, self.u * n + self.v, self.v * n + self.u))

    def clique_counts(self, rows: np.ndarray) -> np.ndarray:
        """Number of 4-cliques (K4) on each triangle; rows is `forward_rows()`.

        Name a triangle's nodes low, mid and top by rank (low is x). A K4 is
        found once, from the triangle (low; mid, top) of its three
        lowest-ranked nodes. Its fourth node d outranks them all, so
        (low; top, d) is a triangle whose entry to its lower end is low -> top,
        and (low; mid, d) is a triangle too. The last, (mid; top, d), has the
        forward entries of the edges that close (low; mid, top) and
        (low; mid, d). A triangle is looked up by its two forward entries.
        """
        entries = len(self.fdst)
        y_top = self.rank[self.fdst[self.first]] > self.rank[self.fdst[self.second]]
        to_top = np.where(y_top, self.first, self.second)
        to_mid = np.where(y_top, self.second, self.first)
        del y_top
        by_mid_entry = np.argsort(to_mid)
        per_entry = np.bincount(to_mid, minlength=entries)
        ends = np.cumsum(per_entry)
        positions, low_mid_top = _segments(ends[to_top] - per_entry[to_top], per_entry[to_top])
        low_top_d = by_mid_entry[positions]  # one candidate d each
        del by_mid_entry, per_entry, ends, positions
        named = self.first * entries + self.second  # ascending

        def triangle(p: np.ndarray, q: np.ndarray) -> np.ndarray:
            """Position of the triangle with forward entries p and q, or -1."""
            return _find(named, np.minimum(p, q) * entries + np.maximum(p, q))

        low_mid_d = triangle(to_mid[low_mid_top], to_top[low_top_d])
        kept = low_mid_d >= 0
        low_mid_top, low_top_d, low_mid_d = low_mid_top[kept], low_top_d[kept], low_mid_d[kept]
        entry = np.empty_like(rows)
        entry[rows] = np.arange(len(rows))
        mid_top_d = triangle(entry[self.closing[low_mid_top]], entry[self.closing[low_mid_d]])
        cliques = np.concatenate((low_mid_top, low_top_d, low_mid_d, mid_top_d))
        return np.bincount(cliques, minlength=len(self.first))

    def sorted_triangles(self, xy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Triangles as rows (a, b, c), a < b < c, in ascending order, and the order taken.

        xy is the row of the edge (x, y) of every triangle. Row i of the
        result is triangle order[i]. As y < z, sorting a triangle only places x.
        """
        n = len(self.rank)
        x, y, z = self.corners()
        a, b, c = np.minimum(x, y), np.where(x < y, y, np.minimum(x, z)), np.maximum(x, z)
        order = np.argsort(np.where(x > z, self.closing, xy) * n + c)  # row of edge (a, b), then c
        return np.column_stack((a, b, c))[order], order


def _closed_wedges(graph: Graph) -> ClosedWedges:
    """List every triangle once, with the row of its closing edge.

    The ends of each forward wedge are looked up among the sorted edge keys.
    Average CC, both censuses and `enumerate_triangles` read only this pass.
    It runs once per graph: the result is kept on the graph, every array
    read-only, and later calls return it.
    """
    if graph._wedges is not None:
        return graph._wedges
    n = graph.node_count
    u, v = _upper_edges(graph.indptr, graph.indices)
    rank, fptr, fsrc, fdst = _forward(graph)
    later = np.arange(1, len(fdst) + 1)
    second, first = _segments(later, fptr[fsrc + 1] - later)  # entry pairs first < second of one list
    del later
    closing = _find(u * n + v, fdst[first] * n + fdst[second])  # fdst[first] < fdst[second]
    hit = closing >= 0
    wedges = ClosedWedges(u, v, rank, fsrc, fdst, first[hit], second[hit], closing[hit])
    for array in wedges:
        array.flags.writeable = False
    graph._wedges = wedges
    return wedges


def parse_edge_list(text: str) -> tuple[Graph, IngestReport]:
    """Parse edge-list text into a simple undirected graph.

    Lines end where `str.splitlines` ends them. Blank lines and lines whose
    first non-whitespace character is "#" or "%" are skipped. On every other
    line the tokens are separated by whitespace, "," or ";", and the first two
    are the edge endpoints: nonnegative integer labels of any size. Extra
    tokens (timestamps, weights) are ignored. Directed duplicates collapse to
    one edge and self-loops are dropped, both counted in the report. Labels
    are remapped to dense ids in ascending label order; a label seen only in
    a self-loop stays as an isolated node. Plain text is parsed in bulk (see
    `_plain_labels`), any other text line by line, with identical results.
    """
    # a lone surrogate can only sit in a comment or in a token the bulk pass declines
    return _parse_plain(text.encode("utf-8", "surrogatepass")) or _parse_lines(text)


def load_edge_list(path: str | Path) -> tuple[Graph, IngestReport]:
    """Read an edge-list file and parse its UTF-8 text as `parse_edge_list` does.

    A file that cannot be opened or read, or is not UTF-8 text, raises
    `DataError`, as a malformed line does.
    """
    try:
        data = Path(path).read_bytes()
        data.decode("utf-8")  # checked here; the text is made again only if the bulk parse declines
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(str(exc)) from exc
    return _parse_plain(data) or _parse_lines(data.decode("utf-8"))


def _parse_lines(text: str) -> tuple[Graph, IngestReport]:
    """Line-by-line parse of any text; the only route that reports a malformed line."""
    endpoints: list[int] = []  # u, v of every edge line, in line order
    line_number = 0
    for line_number, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith(("#", "%")):
            continue
        tokens = stripped.replace(",", " ").replace(";", " ").split(None, 2)
        if len(tokens) < 2:
            raise ParseError("expected at least two integer columns", line_number)
        for token in tokens[:2]:
            try:
                value = int(token)
            except ValueError:
                raise ParseError(f"non-integer token {token!r}", line_number) from None
            if value < 0:
                raise ParseError(f"negative node id {value}", line_number)
            endpoints.append(value)

    # labels of any size: remap through Python ints, never an int64 cast
    labels = sorted(set(endpoints))
    remap = {label: i for i, label in enumerate(labels)}
    ids = np.fromiter(map(remap.__getitem__, endpoints), np.int64, len(endpoints))
    del endpoints, remap
    return _build(ids, len(labels), line_number)


def _parse_plain(data: bytes) -> tuple[Graph, IngestReport] | None:
    """Bulk parse of plain UTF-8 text, or None where `_plain_labels` declines it."""
    plain = _plain_labels(data)
    if plain is None:
        return None
    labels, line_count = plain
    distinct, ids = np.unique(labels, return_inverse=True)  # ids in ascending label order
    return _build(ids, len(distinct), line_count)


def _build(ids: np.ndarray, n: int, line_count: int) -> tuple[Graph, IngestReport]:
    """Graph and report from the dense ids (0..n-1) of every edge line's endpoints, u and v interleaved."""
    u, v = ids[0::2], ids[1::2]
    kept = u != v
    keys = np.minimum(u, v)[kept] * n + np.maximum(u, v)[kept]
    unique = _sorted_unique(keys)
    graph = Graph._from_pairs(*np.divmod(unique, n), n)
    report = IngestReport(
        lines_read=line_count,
        self_loops_dropped=len(u) - len(keys),
        duplicates_dropped=len(keys) - len(unique),
        nodes=graph.node_count,
        edges=graph.edge_count,
    )
    return graph, report


# Byte classes of the bulk pass; every class from _DELIM up marks a byte that
# may stand on a data line only if it is "," or ";"
_SPACE, _DIGIT, _NEWLINE, _DELIM, _COMMENT, _OTHER, _BREAK = range(7)
_BYTE_CLASS = np.full(256, _OTHER, dtype=np.uint8)
_BYTE_CLASS[list(b" \t")] = _SPACE
_BYTE_CLASS[list(b"0123456789")] = _DIGIT
_BYTE_CLASS[list(b"\n")] = _NEWLINE
_BYTE_CLASS[list(b",;")] = _DELIM
_BYTE_CLASS[list(b"#%")] = _COMMENT
_BYTE_CLASS[list(b"\r\x0b\x0c\x1c\x1d\x1e")] = _BREAK  # the one-byte line breaks of str.splitlines besides "\n"
_WIDE_BREAKS = tuple(char.encode() for char in "\x85\u2028\u2029")  # and its multi-byte ones
_MAX_DIGITS = 18  # every label of up to 18 digits fits int64


def _plain_labels(data: bytes) -> tuple[np.ndarray, int] | None:
    """Endpoint labels of plain text (u and v interleaved, int64) and its line count, or None.

    Text is plain when "\\n" is its only line break and, outside comment lines,
    it holds only ASCII digits, space, tab, "," and ";", every line with a
    token has at least two, and the first two have at most 18 digits. Such
    text gives exactly the labels and line count of `_parse_lines`; any other
    text returns None. Tokens are the digit runs; a searchsorted over the
    newline positions gives each token its line. Arrays over every byte are
    uint8 or bool and are freed on return; int64 arrays hold one entry per
    token, line or mark (a byte of class _DELIM or above).
    """
    if not data.isascii() and any(wide in data for wide in _WIDE_BREAKS):
        return None
    raw = np.frombuffer(data, dtype=np.uint8)
    codes = _BYTE_CLASS[raw]
    if (codes == _BREAK).any():
        return None
    newlines = np.flatnonzero(codes == _NEWLINE)
    line_count = len(newlines) + int(bool(data) and not data.endswith(b"\n"))
    digit = np.zeros(len(raw) + 2, dtype=bool)
    np.equal(codes, _DIGIT, out=digit[1:-1])
    starts, ends = np.flatnonzero(digit[1:] != digit[:-1]).reshape(-1, 2).T  # digit runs
    del digit
    token_line = np.searchsorted(newlines, starts)
    marks = np.flatnonzero(codes >= _DELIM)
    mark_code = codes[marks]
    mark_line = np.searchsorted(newlines, marks)
    del codes, newlines

    # a comment line's first mark is "#" or "%", with no token before it on its line
    first = np.ones(len(marks), dtype=bool)
    np.not_equal(mark_line[1:], mark_line[:-1], out=first[1:])
    heads, head_line = marks[first], mark_line[first]
    at_line_start = np.searchsorted(starts, heads) == np.searchsorted(token_line, head_line)
    comment = np.zeros(line_count + 1, dtype=bool)
    comment[head_line[at_line_start & (mark_code[first] == _COMMENT)]] = True
    tokens_on = np.bincount(token_line, minlength=len(comment))
    tokens_on[comment] = 0
    # a data line may hold "," and ";" besides its tokens, and never a lone token;
    # a line of separators alone is a malformed line, not a blank one
    stray = ~comment[mark_line] & ((mark_code != _DELIM) | (tokens_on[mark_line] == 0))
    if stray.any() or (tokens_on == 1).any():
        return None

    line_start = ~comment[token_line]
    np.logical_and(line_start[1:], token_line[1:] != token_line[:-1], out=line_start[1:])
    pick = np.repeat(np.flatnonzero(line_start), 2)
    pick[1::2] += 1  # the first two tokens of each data line
    starts, ends = starts[pick], ends[pick]
    widths = ends - starts
    longest = int(widths.max(initial=0))
    if longest > _MAX_DIGITS:
        return None
    labels = np.zeros(len(widths), dtype=np.int64)
    for k in range(1, longest + 1):  # the k-th digit from the right
        digits = raw[ends - k].astype(np.int64) - ord("0")
        labels += np.where(widths >= k, digits, 0) * 10 ** (k - 1)
    return labels, line_count


def write_edge_list(graph: Graph, target: str | os.PathLike | IO[str]) -> None:
    """Write the canonical edge list: one "u v" line per edge, u < v, sorted."""
    if isinstance(target, (str, os.PathLike)):
        with open(target, "w", encoding="utf-8") as handle:
            write_edge_list(graph, handle)
        return
    for u, v in graph.edges():
        target.write(f"{u} {v}\n")


def average_clustering_coefficient(graph: Graph) -> float:
    """Arithmetic mean of the local clustering coefficient over all nodes.

    A node's coefficient is t / (k(k-1)/2), 0 where k < 2. The mean sums them
    strictly in node order, which keeps the result bit-identical to a plain
    loop; `np.sum` adds pairwise and the builtin `sum` compensates on
    Python 3.12+.
    """
    if graph.node_count == 0:
        raise DataError("empty graph")
    per_node = np.bincount(np.concatenate(_closed_wedges(graph).corners()), minlength=graph.node_count)
    t = np.asarray(per_node, dtype=np.float64)
    k = np.asarray(np.diff(graph.indptr), dtype=np.float64)
    local = np.zeros(len(t))
    np.divide(t, k * (k - 1) / 2, out=local, where=k >= 2)
    return float(np.add.accumulate(local)[-1]) / len(t)
