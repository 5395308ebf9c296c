"""Scale-free network growth with preferential attachment and triad formation.

Each incoming node receives exactly m edges (Holme & Kim, PRE 65, 026107,
2002). The first is preferential attachment (PA): a uniform entry of the list
of all edge endpoints, a degree-proportional draw; ineligible targets are
redrawn. Before each further edge a coin with probability p_t makes it a
triad-formation edge to a uniform non-adjacent neighbor of the last PA target,
or PA when there is none. Triangles are counted while the network grows.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .graph import Graph, mean_local_clustering


class ConfigError(ValueError):
    """A parameter value is out of range or inconsistent with the others."""


class CalibrationError(RuntimeError):
    """Target clustering coefficient unreachable or not reached in budget."""

    def __init__(self, message: str, achievable_cc: float | None = None):
        super().__init__(message)
        self.achievable_cc = achievable_cc


@dataclass(frozen=True)
class GrowthConfig:
    """Parameters of one generation run.

    n: final node count; n0: seed-ring size; m: edges per incoming node;
    p_t: triad-formation probability; seed: RNG seed.
    """

    n: int
    n0: int
    m: int
    p_t: float
    seed: int

    def __post_init__(self):
        if self.m < 1:
            raise ConfigError(f"m must be >= 1, got {self.m}")
        if self.n0 < self.m:
            raise ConfigError(f"n0 must be >= m, got n0={self.n0}, m={self.m}")
        if self.n < self.n0:
            raise ConfigError(f"n must be >= n0, got n={self.n}, n0={self.n0}")
        if not 0.0 <= self.p_t <= 1.0:
            raise ConfigError(f"p_t must be in [0, 1], got {self.p_t}")
        if self.n0 < 3 and self.n > self.n0:
            # an edgeless/near-edgeless seed leaves degree-proportional
            # sampling undefined for incoming nodes
            raise ConfigError("growth from a seed of fewer than 3 nodes is not supported")

    def seed_edge_count(self) -> int:
        if self.n0 >= 3:
            return self.n0
        return self.n0 - 1

    def metadata(self) -> dict:
        """Rule choices recorded alongside generated networks for audit."""
        return {
            "n": self.n,
            "n0": self.n0,
            "m": self.m,
            "p_t": self.p_t,
            "seed": self.seed,
            "seed_topology": "ring",
            "pa_rule": "degree-proportional (edge-endpoint list), ineligible targets redrawn",
            "tf_rule": "coin flipped before every edge after the first; partner is a uniform "
            "non-adjacent neighbor of the last PA target; falls back to PA",
        }


@dataclass(frozen=True)
class CalibrationResult:
    p_t: float
    achieved_cc: float
    iterations: int
    pilot_networks: int
    probes: list[list[float]]


_TF_TRIES = 3  # uniform draws from the hub's neighbors before the exact scan
_MAX_ITERATIONS = 20  # regula falsi probes after the two bracket ends


def _uniforms(rng: np.random.Generator) -> Iterator[float]:
    """Uniform floats in [0, 1), taken from the generator in blocks."""
    while True:
        yield from rng.random(4096).tolist()


def _grow(config: GrowthConfig) -> tuple[list[list[int]], list[int]]:
    """Grow a network; return neighbor lists in insertion order and per-node triangle counts."""
    n, n0, m, p_t = config.n, config.n0, config.m, config.p_t
    draw = _uniforms(np.random.default_rng(config.seed)).__next__
    neighbor_lists: list[list[int]] = [[] for _ in range(n)]
    neighbor_sets: list[set[int]] = [set() for _ in range(n)]
    triangles = [0] * n
    endpoints: list[int] = []  # both ends of every edge: a uniform entry is degree-proportional

    def add_edge(u: int, w: int) -> None:
        common = neighbor_sets[u] & neighbor_sets[w]
        for x in common:
            triangles[x] += 1
        triangles[u] += len(common)
        triangles[w] += len(common)
        neighbor_sets[u].add(w)
        neighbor_sets[w].add(u)
        neighbor_lists[u].append(w)
        neighbor_lists[w].append(u)
        endpoints.extend((u, w))

    for i in range(config.seed_edge_count()):
        add_edge(i, (i + 1) % n0)

    for v in range(n0, n):
        own = neighbor_sets[v]
        for k in range(m):
            tf = k > 0 and draw() < p_t
            pool = neighbor_lists[target] if tf else endpoints
            for misses in itertools.count(1):
                w = pool[int(draw() * len(pool))]
                if w != v and w not in own:
                    break
                if tf and misses == _TF_TRIES:  # exact scan; PA if no neighbor is eligible
                    pool = [c for c in pool if c != v and c not in own]
                    if not pool:
                        tf, pool = False, endpoints
            if not tf:
                target = w
            add_edge(v, w)

    return neighbor_lists, triangles


def generate_pa_tf(config: GrowthConfig) -> Graph:
    """Grow a network under the config. Deterministic given the seed."""
    neighbor_lists, _ = _grow(config)
    return Graph(neighbor_lists)


def grow_with_clustering(config: GrowthConfig) -> tuple[Graph, float]:
    """The network `generate_pa_tf` grows, and its average clustering coefficient.

    The coefficient comes from the triangles counted during growth, through
    the same `mean_local_clustering` as `average_clustering_coefficient`, so
    the two agree bit for bit without a triangle pass over the graph.
    """
    neighbor_lists, triangles = _grow(config)
    return Graph(neighbor_lists), mean_local_clustering(triangles, list(map(len, neighbor_lists)))


def derive_growth_config(nodes: int, edges: int) -> GrowthConfig:
    """Match a real network's size: m from the edge/node ratio, ring seed.

    p_t starts at 0; calibrate it separately against the target clustering
    coefficient and swap it in with dataclasses.replace.
    """
    if nodes < 1:
        raise ConfigError("nodes must be positive")
    m = max(1, round(edges / nodes))
    n0 = max(m, 3)
    return GrowthConfig(n=max(nodes, n0), n0=n0, m=m, p_t=0.0, seed=0)


def derive_seed(master_seed: int, *key: int) -> int:
    """Deterministic 64-bit child seed from a master seed and a counter path."""
    sequence = np.random.SeedSequence(entropy=master_seed, spawn_key=tuple(key))
    return int(sequence.generate_state(1, np.uint64)[0])


def _pilot_mean_cc(n: int, n0: int, m: int, p_t: float, pilot_seeds: Sequence[int]) -> float:
    """Pilot-mean average CC from growth-time triangle counts."""
    values = []
    for s in pilot_seeds:
        neighbor_lists, triangles = _grow(GrowthConfig(n=n, n0=n0, m=m, p_t=p_t, seed=s))
        values.append(mean_local_clustering(triangles, list(map(len, neighbor_lists))))
    return float(np.mean(values))


def calibrate_pt(
    n: int,
    m: int,
    target_cc: float,
    tolerance: float = 0.02,
    pilots: int = 5,
    seed: int = 0,
) -> CalibrationResult:
    """Find p_t whose pilot-mean clustering coefficient is within tolerance of the target.

    Probes p_t = 0 and 1, then runs Illinois regula falsi on that bracket. Every
    probe reuses the same pilot seeds (common random numbers), which keeps the
    p_t -> CC curve monotone-stable and calibration deterministic. The result
    lists each probe's [p_t, pilot-mean CC] in probe order.
    """
    if tolerance <= 0:
        raise ConfigError("tolerance must be positive")
    if pilots < 1:
        raise ConfigError("pilots must be >= 1")
    n0 = max(m, 3)
    pilot_seeds = [derive_seed(seed, i) for i in range(pilots)]
    probes: list[list[float]] = []

    def probe(p_t: float) -> float:
        probes.append([p_t, _pilot_mean_cc(n, n0, m, p_t, pilot_seeds)])
        return probes[-1][1]

    def found(iterations: int) -> CalibrationResult:  # the last probe hit the target
        return CalibrationResult(*probes[-1], iterations, pilots * len(probes), probes)

    cc_low = probe(0.0)
    if abs(cc_low - target_cc) <= tolerance:
        return found(0)
    if target_cc < cc_low:
        raise CalibrationError(
            f"target CC {target_cc} below minimum achievable {cc_low:.4f} at p_t=0",
            achievable_cc=cc_low,
        )
    cc_high = probe(1.0)
    if abs(cc_high - target_cc) <= tolerance:
        return found(0)
    if target_cc > cc_high:
        raise CalibrationError(
            f"target CC {target_cc} above maximum achievable {cc_high:.4f} at p_t=1",
            achievable_cc=cc_high,
        )

    # bracket[0] holds [p_t, CC - target] below the target, bracket[1] above it
    bracket = [[0.0, cc_low - target_cc], [1.0, cc_high - target_cc]]
    last_side = -1
    for iteration in range(1, _MAX_ITERATIONS + 1):
        (low, f_low), (high, f_high) = bracket
        p_t = (low * f_high - high * f_low) / (f_high - f_low)
        cc = probe(p_t)
        if abs(cc - target_cc) <= tolerance:
            return found(iteration)
        side = int(cc > target_cc)
        bracket[side] = [p_t, cc - target_cc]
        if side == last_side:  # Illinois: halve the end kept twice in a row
            bracket[1 - side][1] /= 2.0
        last_side = side
    raise CalibrationError(
        f"no p_t within tolerance {tolerance} of target CC {target_cc} "
        f"after {_MAX_ITERATIONS} iterations"
    )


def degree_ccdf_slope(graph: Graph, d_min: int, d_max: int) -> float:
    """Least-squares slope of log10 CCDF(degree) vs log10 degree on [d_min, d_max]."""
    degrees = np.asarray(graph.degrees(), dtype=np.int64)
    ds = np.arange(max(1, d_min), max(d_min, d_max) + 1)
    ccdf = np.array([(degrees >= d).mean() for d in ds])
    mask = ccdf > 0
    if mask.sum() < 2:
        raise ValueError("not enough support to estimate a slope")
    slope, _ = np.polyfit(np.log10(ds[mask]), np.log10(ccdf[mask]), 1)
    return float(slope)
