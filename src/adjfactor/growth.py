"""Scale-free network growth with preferential attachment and triad formation.

Each incoming node receives exactly m edges. Preferential attachment picks a
target with probability proportional to current degree (redrawing ineligible
targets); after every added edge a coin with probability p_t decides whether
the next edge, budget permitting, is a triad-formation edge to a random
not-yet-adjacent neighbor of the most recent PA target. When that neighbor
pool is empty the step falls back to preferential attachment, so the edge
budget is always met.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .graph import Graph, average_clustering_coefficient


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
            raise ValueError(f"m must be >= 1, got {self.m}")
        if self.n0 < self.m:
            raise ValueError(f"n0 must be >= m, got n0={self.n0}, m={self.m}")
        if self.n < self.n0:
            raise ValueError(f"n must be >= n0, got n={self.n}, n0={self.n0}")
        if not 0.0 <= self.p_t <= 1.0:
            raise ValueError(f"p_t must be in [0, 1], got {self.p_t}")
        if self.n0 < 3 and self.n > self.n0:
            # an edgeless/near-edgeless seed leaves degree-proportional
            # sampling undefined for incoming nodes
            raise ValueError("growth from a seed of fewer than 3 nodes is not supported")

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
            "pa_rule": "degree-proportional, ineligible targets redrawn",
            "tf_rule": "coin flipped after every added edge; partner is a random "
            "non-adjacent neighbor of the last PA target; falls back to PA",
        }


@dataclass(frozen=True)
class CalibrationResult:
    p_t: float
    achieved_cc: float
    iterations: int
    pilot_networks: int


class _Fenwick:
    """Prefix-sum tree over per-node integer weights; O(log n) draw and update."""

    __slots__ = ("size", "tree", "total")

    def __init__(self, size: int):
        self.size = size
        self.tree = [0] * (size + 1)
        self.total = 0

    def add(self, index: int, weight: int) -> None:
        self.total += weight
        i = index + 1
        while i <= self.size:
            self.tree[i] += weight
            i += i & (-i)

    def find(self, value: float) -> int:
        """Smallest index whose prefix sum exceeds value (value in [0, total))."""
        index = 0
        bit = 1 << self.size.bit_length()
        while bit:
            probe = index + bit
            if probe <= self.size and self.tree[probe] <= value:
                index = probe
                value -= self.tree[probe]
            bit >>= 1
        return index


def generate_pa_tf(config: GrowthConfig) -> Graph:
    """Grow a network under the config. Deterministic given the seed."""
    rng = np.random.default_rng(config.seed)
    n, n0, m, p_t = config.n, config.n0, config.m, config.p_t

    adjacency: list[set[int]] = [set() for _ in range(n)]
    weights = _Fenwick(n)

    def add_edge(u: int, v: int) -> None:
        adjacency[u].add(v)
        adjacency[v].add(u)
        weights.add(u, 1)
        weights.add(v, 1)

    if n0 >= 3:
        for i in range(n0):
            add_edge(i, (i + 1) % n0)
    elif n0 == 2:
        add_edge(0, 1)

    for v in range(n0, n):
        added = 0
        last_pa_target: int | None = None
        next_is_tf = False
        while added < m:
            placed = False
            if next_is_tf and last_pa_target is not None:
                candidates = sorted(
                    u for u in adjacency[last_pa_target] if u != v and u not in adjacency[v]
                )
                if candidates:
                    add_edge(v, candidates[rng.integers(len(candidates))])
                    placed = True
            if not placed:
                while True:
                    w = weights.find(rng.random() * weights.total)
                    if w != v and w not in adjacency[v]:
                        break
                add_edge(v, w)
                last_pa_target = w
            added += 1
            next_is_tf = rng.random() < p_t

    return Graph(adjacency)


def derive_growth_config(nodes: int, edges: int, seed: int = 0) -> GrowthConfig:
    """Match a real network's size: m from the edge/node ratio, ring seed.

    p_t starts at 0; calibrate it separately against the target clustering
    coefficient and swap it in with dataclasses.replace.
    """
    if nodes < 1:
        raise ValueError("nodes must be positive")
    m = max(1, round(edges / nodes))
    n0 = max(m, 3)
    return GrowthConfig(n=max(nodes, n0), n0=n0, m=m, p_t=0.0, seed=seed)


def derive_seed(master_seed: int, *key: int) -> int:
    """Deterministic 64-bit child seed from a master seed and a counter path."""
    sequence = np.random.SeedSequence(entropy=master_seed, spawn_key=tuple(key))
    return int(sequence.generate_state(1, np.uint64)[0])


def _pilot_mean_cc(n: int, n0: int, m: int, p_t: float, pilot_seeds: Sequence[int]) -> float:
    values = [
        average_clustering_coefficient(
            generate_pa_tf(GrowthConfig(n=n, n0=n0, m=m, p_t=p_t, seed=s))
        )
        for s in pilot_seeds
    ]
    return float(np.mean(values))


def calibrate_pt(
    n: int,
    m: int,
    target_cc: float,
    tolerance: float = 0.02,
    pilots: int = 5,
    seed: int = 0,
    max_iterations: int = 20,
    n0: int | None = None,
) -> CalibrationResult:
    """Bisect p_t until the pilot-mean clustering coefficient hits the target.

    The same pilot seed set is reused at every probe (common random numbers),
    which keeps the probed p_t -> CC curve monotone-stable and the whole
    calibration deterministic.
    """
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    if pilots < 1:
        raise ValueError("pilots must be >= 1")
    n0 = max(m, 3) if n0 is None else n0
    pilot_seeds = [derive_seed(seed, i) for i in range(pilots)]

    cc_low = _pilot_mean_cc(n, n0, m, 0.0, pilot_seeds)
    if abs(cc_low - target_cc) <= tolerance:
        return CalibrationResult(p_t=0.0, achieved_cc=cc_low, iterations=0, pilot_networks=pilots)
    if target_cc < cc_low:
        raise CalibrationError(
            f"target CC {target_cc} below minimum achievable {cc_low:.4f} at p_t=0",
            achievable_cc=cc_low,
        )
    cc_high = _pilot_mean_cc(n, n0, m, 1.0, pilot_seeds)
    if abs(cc_high - target_cc) <= tolerance:
        return CalibrationResult(p_t=1.0, achieved_cc=cc_high, iterations=0, pilot_networks=pilots)
    if target_cc > cc_high:
        raise CalibrationError(
            f"target CC {target_cc} above maximum achievable {cc_high:.4f} at p_t=1",
            achievable_cc=cc_high,
        )

    low, high = 0.0, 1.0
    for iteration in range(1, max_iterations + 1):
        mid = (low + high) / 2.0
        cc_mid = _pilot_mean_cc(n, n0, m, mid, pilot_seeds)
        if abs(cc_mid - target_cc) <= tolerance:
            return CalibrationResult(
                p_t=mid, achieved_cc=cc_mid, iterations=iteration, pilot_networks=pilots
            )
        if cc_mid < target_cc:
            low = mid
        else:
            high = mid
    raise CalibrationError(
        f"no p_t within tolerance {tolerance} of target CC {target_cc} "
        f"after {max_iterations} bisection iterations"
    )


def calibrated_config(
    nodes: int,
    edges: int,
    target_cc: float,
    tolerance: float = 0.02,
    pilots: int = 5,
    seed: int = 0,
) -> tuple[GrowthConfig, CalibrationResult]:
    """Derive a size-matched config and calibrate its p_t to the target CC."""
    config = derive_growth_config(nodes, edges, seed=seed)
    result = calibrate_pt(
        config.n,
        config.m,
        target_cc,
        tolerance=tolerance,
        pilots=pilots,
        seed=seed,
        n0=config.n0,
    )
    return replace(config, p_t=result.p_t), result


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
