"""Shared test fixtures: small graph builders and brute-force oracles.

The oracles deliberately use naive exhaustive scans so they stay independent
of the library's algorithms.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from adjfactor import Graph, ParseError, models
from adjfactor.graph import IngestReport

# log bases that are not a finite real number > 0 other than 1
BAD_LOG_BASES = (1.0, math.nan, math.inf, 0.0, -10.0, "10")


def complete_graph(n: int) -> Graph:
    return Graph.from_edges([(i, j) for i in range(n) for j in range(i + 1, n)])


def path_graph(n: int) -> Graph:
    return Graph.from_edges([(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges([(i, (i + 1) % n) for i in range(n)])


def er_graph(n: int, p: float, seed: int) -> Graph:
    """Seeded Erdos-Renyi graph over all node pairs."""
    rng = np.random.default_rng(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    g = Graph.from_edges(edges, node_count=n)
    return g


def brute_triangles(g: Graph) -> list[tuple[int, int, int]]:
    """Exhaustive scan of every node triple."""
    out = []
    for a, b, c in combinations(range(g.node_count), 3):
        if g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c):
            out.append((a, b, c))
    return out


def brute_s_factor(g: Graph, u: int, v: int) -> int:
    """Count nodes adjacent to both endpoints by scanning every node."""
    return sum(1 for w in range(g.node_count) if w not in (u, v) and g.has_edge(w, u) and g.has_edge(w, v))


def brute_t_factor(g: Graph, tri: tuple[int, int, int]) -> int:
    """Count outside nodes adjacent to exactly two triangle vertices."""
    a, b, c = tri
    count = 0
    for w in range(g.node_count):
        if w in (a, b, c):
            continue
        hits = sum(1 for v in (a, b, c) if g.has_edge(w, v))
        if hits == 2:
            count += 1
    return count


def set_t_factor(sets: list[set[int]], a: int, b: int, c: int) -> int:
    """T factor of triangle (a, b, c) from per-node neighbor sets.

    Each pair's common neighbors include the third vertex; triple-adjacent
    nodes appear in all three pair sets and must not count at all.
    """
    common_ab = sets[a] & sets[b]
    triple = len(common_ab & sets[c])
    return len(common_ab) + len(sets[b] & sets[c]) + len(sets[c] & sets[a]) - 3 - 3 * triple


def reference_parse(text: str) -> tuple[IngestReport, set[tuple[int, int]]]:
    """Edge-list parsing with a set of label pairs and a label dict, line by line."""
    pairs: set[tuple[int, int]] = set()
    labels: set[int] = set()
    self_loops = duplicates = 0
    lines = text.splitlines()
    for line_number, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if not stripped or stripped[0] in "#%":
            continue
        tokens = stripped.replace(",", " ").replace(";", " ").split()
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
        labels.update((u, v))
        if u == v:
            self_loops += 1
        elif (min(u, v), max(u, v)) in pairs:
            duplicates += 1
        else:
            pairs.add((min(u, v), max(u, v)))
    ids = {label: i for i, label in enumerate(sorted(labels))}
    edges = {(ids[u], ids[v]) for u, v in pairs}
    report = IngestReport(len(lines), self_loops, duplicates, len(ids), len(edges))
    return report, edges


def series_erfc(x: float) -> float:
    """erfc by Maclaurin summation of erf, run to convergence.

    Terms follow the recurrence t_n = t_{n-1} * (-x^2/n) * (2n-1)/(2n+1);
    accurate for |x| <= ~3 where the alternating series is well-conditioned.
    """
    term = x
    total = x
    n = 1
    while abs(term) > 1e-20 and n < 500:
        term *= -x * x / n * (2 * n - 1) / (2 * n + 1)
        total += term
        n += 1
    return 1.0 - 2.0 / math.sqrt(math.pi) * total


def reference_erfcx(y: np.ndarray) -> np.ndarray:
    """erfcx from models' committed cubic pieces, evaluated row by row.

    Each point gathers its piece's row of 4 coefficients, takes u = k - j
    with the integer index j, and runs Horner on the row's columns.
    """
    rows = models._ERFCX_TABLE.T
    pieces = models._ERFCX_PIECES
    r = 1.0 / (y + 3.0)
    k = np.fmin(pieces - 3 * pieces * r, pieces)
    j = k.astype(np.intp)
    u = k - j
    c = rows[j]
    return (((c[..., 3] * u + c[..., 2]) * u + c[..., 1]) * u + c[..., 0]) * r


def reference_emg(x: np.ndarray, lam: np.ndarray, mu: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """The EMG for (k, 1) parameter columns: both families everywhere, then a mask.

    sigma=0 rows take lam*exp(-lam*(x-mu)) for x >= mu and 0 below; the
    others take the Gaussian form with reference_erfcx, switching to
    erfc(arg) = 2 - exp(-arg^2)*erfcx(-arg) where arg = (lam*sigma - z)/sqrt(2)
    is negative.
    """
    root2 = math.sqrt(2.0)
    with np.errstate(all="ignore"):
        d = x - mu
        limit = np.where(d >= 0.0, lam * np.exp(-lam * d), 0.0)
        half_z = d / (sigma * root2)
        arg = lam * sigma / root2 - half_z
        h = 0.5 * lam * np.exp(-(half_z * half_z)) * reference_erfcx(np.abs(arg))
        gaussian = np.where(arg < 0.0, lam * np.exp(0.5 * (lam * sigma) ** 2 - lam * d) - h, h)
    return np.where(sigma == 0.0, limit, gaussian)
