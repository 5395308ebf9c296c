"""Scale-free network growth with preferential attachment and triad formation.

Each incoming node receives exactly m edges (Holme & Kim, PRE 65, 026107,
2002). The first is preferential attachment (PA): a uniform entry of the list
of all edge endpoints, a degree-proportional draw; ineligible targets are
redrawn. Before each further edge a coin with probability p_t makes it a
triad-formation edge to a uniform non-adjacent neighbor of the last PA target,
or PA when there is none.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass
from typing import Iterator, Sequence

import numpy as np

from .graph import Graph, average_clustering_coefficient


class ConfigError(ValueError):
    """A parameter value is out of range or inconsistent with the others."""


def _check_count(name: str, value, minimum: int) -> None:
    """Raise ConfigError unless value is an integer >= minimum; a bool is not a count."""
    if not (isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= minimum):
        raise ConfigError(f"{name} must be an integer >= {minimum}, got {value!r}")


class CalibrationError(RuntimeError):
    """Target clustering coefficient unreachable or not reached in budget."""

    def __init__(self, message: str, achievable_cc: float | None = None):
        super().__init__(message)
        self.achievable_cc = achievable_cc


def seed_ring_size(m: int) -> int:
    """Seed-ring size for m edges per node: m, and at least the 3 nodes growth needs."""
    return max(m, 3)


@dataclass(frozen=True, kw_only=True)
class GrowthConfig:
    """Parameters of one generation run, passed by keyword.

    n: final node count; n0: seed-ring size (default `seed_ring_size(m)`); m: edges
    per incoming node; p_t: triad-formation probability; seed: RNG seed (default 0).
    """

    n: int
    n0: int | None = None
    m: int
    p_t: float
    seed: int = 0

    def __post_init__(self):
        _check_count("m", self.m, 1)
        if self.n0 is None:
            object.__setattr__(self, "n0", seed_ring_size(self.m))
        _check_count("n0", self.n0, self.m)
        _check_count("n", self.n, self.n0)
        if isinstance(self.p_t, bool) or not 0.0 <= self.p_t <= 1.0:
            raise ConfigError(f"p_t must be in [0, 1], got {self.p_t}")
        _check_count("seed", self.seed, 0)
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
            **asdict(self),
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


def _grow(config: GrowthConfig) -> list[int]:
    """Grow a network; return both ends of each edge, in growth order."""
    n, n0, m, p_t = config.n, config.n0, config.m, config.p_t
    draw = _uniforms(np.random.default_rng(config.seed)).__next__
    neighbor_lists: list[list[int]] = [[] for _ in range(n)]
    endpoints: list[int] = []  # both ends of every edge: a uniform entry is degree-proportional

    for u in range(config.seed_edge_count()):
        w = (u + 1) % n0
        neighbor_lists[u].append(w)
        neighbor_lists[w].append(u)
        endpoints.extend((u, w))

    for v in range(n0, n):
        own: set[int] = set()
        for k in range(m):
            tf = k > 0 and draw() < p_t
            pool = neighbor_lists[target] if tf else endpoints
            w = pool[int(draw() * len(pool))]
            misses = 0
            while w == v or w in own:
                misses += 1
                if tf and misses == _TF_TRIES:  # exact scan; PA if no neighbor is eligible
                    pool = [c for c in pool if c != v and c not in own]
                    if not pool:
                        tf, pool = False, endpoints
                w = pool[int(draw() * len(pool))]
            if not tf:
                target = w
            own.add(w)
            neighbor_lists[v].append(w)
            neighbor_lists[w].append(v)
            endpoints.extend((v, w))

    return endpoints


def generate_pa_tf(config: GrowthConfig) -> Graph:
    """Grow a network under the config. Deterministic given the seed."""
    ends = np.array(_grow(config), dtype=np.int64)  # unique, loop-free pairs: w != v and w not in own
    return Graph._from_pairs(ends[0::2], ends[1::2], config.n)


def derive_growth_config(nodes: int, edges: int) -> GrowthConfig:
    """Match a real network's size: m from the edge/node ratio, ring seed.

    p_t starts at 0; calibrate it separately against the target clustering
    coefficient and swap it in with dataclasses.replace.
    """
    _check_count("nodes", nodes, 1)
    _check_count("edges", edges, 0)
    m = max(1, round(edges / nodes))
    return GrowthConfig(n=max(nodes, seed_ring_size(m)), m=m, p_t=0.0)


def derive_seed(master_seed: int, *key: int) -> int:
    """Deterministic 64-bit child seed from a master seed and a counter path."""
    _check_count("seed", master_seed, 0)
    sequence = np.random.SeedSequence(entropy=master_seed, spawn_key=tuple(key))
    return int(sequence.generate_state(1, np.uint64)[0])


def _pilot_mean_cc(n: int, m: int, p_t: float, pilot_seeds: Sequence[int]) -> float:
    """Mean over the pilot seeds of the grown networks' average CC."""
    configs = (GrowthConfig(n=n, m=m, p_t=p_t, seed=s) for s in pilot_seeds)
    return float(np.mean([average_clustering_coefficient(generate_pa_tf(config)) for config in configs]))


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
    if isinstance(tolerance, bool) or not (math.isfinite(tolerance) and tolerance > 0):
        raise ConfigError(f"tolerance must be finite and > 0, got {tolerance!r}")
    if not math.isfinite(target_cc):
        raise ConfigError(f"target_cc must be finite, got {target_cc!r}")
    _check_count("pilots", pilots, 1)
    pilot_seeds = [derive_seed(seed, i) for i in range(pilots)]
    probes: list[list[float]] = []

    def probe(p_t: float) -> float:
        probes.append([p_t, _pilot_mean_cc(n, m, p_t, pilot_seeds)])
        return probes[-1][1]

    def found(iterations: int) -> CalibrationResult:  # the last probe hit the target
        return CalibrationResult(*probes[-1], iterations, pilots * len(probes), probes)

    # bracket[side] holds [p_t, CC - target]: side 0 below the target, side 1 above it
    for p_t, side, wording in ((0.0, 0, "below minimum"), (1.0, 1, "above maximum")):
        cc = probe(p_t)
        if abs(cc - target_cc) <= tolerance:
            return found(0)
        if int(cc > target_cc) != side:
            message = f"target CC {target_cc} {wording} achievable {cc:.4f} at p_t={p_t:.0f}"
            raise CalibrationError(message, achievable_cc=cc)
    bracket = [[p_t, cc - target_cc] for p_t, cc in probes]
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
