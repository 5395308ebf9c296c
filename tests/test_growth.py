import hashlib

import numpy as np
import pytest

from adjfactor import (
    CalibrationError,
    ConfigError,
    Graph,
    GrowthConfig,
    average_clustering_coefficient,
    calibrate_pt,
    generate_pa_tf,
    growth,
)
from adjfactor.growth import derive_growth_config, derive_seed

# sha256 of `growth._grow`'s endpoint list as int64; a change to the draws or
# their order moves every grown network and must be made on purpose
STREAM_DIGESTS = {
    # seed ring only
    GrowthConfig(n=5, n0=5, m=3, p_t=0.7, seed=1): "321ab3d1fb39f7dc2508c8b74d0cbd3bab7dbd05e62d7c30c5a92820b65aa400",
    # preferential attachment only, one edge per node
    GrowthConfig(n=500, n0=3, m=1, p_t=0.0, seed=2): "d0641ca18d91095d213f7f3eb1990b20acb8874e21410f95e778b8a37d18fa4c",
    # the determinism fixture's input
    GrowthConfig(n=600, n0=3, m=2, p_t=0.45, seed=11): "4203dc82b121081eca8f2c6a8e47935ba25542d27f9218254be9927520be9ce9",
    # TF draws miss and the exact scan runs
    GrowthConfig(n=40, n0=6, m=5, p_t=1.0, seed=3): "e2537731e4ca22ae15005401310c300f5388e4e7598e33372473177b084f3509",
    # dense, shaped like Email-Eu-core
    GrowthConfig(n=1005, n0=16, m=16, p_t=0.9, seed=1): "0bda93cf7fd53581428a57b108e807bd43776bde1726db12131a5ce626b29dbe",
    # grow-10k's shape: 343 exact scans, 2 of which fall back to PA
    GrowthConfig(n=10000, n0=5, m=5, p_t=0.6, seed=1): "ccc0c42af733f49c5dafdad7e1deb466b4e425e76f27f9a803ad556cb26e89a2",
}


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=10, n0=3, m=0, p_t=0.5, seed=0),
            dict(n=10, n0=2, m=3, p_t=0.5, seed=0),
            dict(n=2, n0=3, m=1, p_t=0.5, seed=0),
            dict(n=10, n0=3, m=2, p_t=1.5, seed=0),
            dict(n=10, n0=3, m=2, p_t=-0.1, seed=0),
            dict(n=10, n0=2, m=1, p_t=0.0, seed=0),
            dict(n=10, n0=3, m=2, p_t=0.5, seed=-1),
            dict(n=300.0, n0=3, m=2, p_t=0.5, seed=0),
            dict(n=10, n0=3.0, m=2, p_t=0.5, seed=0),
            dict(n=10, n0=3, m=2.0, p_t=0.5, seed=0),
            dict(n=10, n0=3, m=2, p_t=0.5, seed=1.5),
            dict(n=10, n0=3, m=True, p_t=0.5, seed=0),
            dict(n=10, n0=3, m=2, p_t=True, seed=0),
            dict(n=1, n0=1, m=1, p_t=0.0, seed=3),
            dict(n=2, n0=2, m=1, p_t=0.5, seed=3),
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            GrowthConfig(**kwargs)

    @pytest.mark.parametrize("n0,p_t", [(1, 0.0), (2, 0.5)])
    def test_every_seed_is_a_ring_of_at_least_three_nodes(self, n0, p_t):
        with pytest.raises(ConfigError, match=rf"^n0 must be an integer >= 3, got {n0}$"):
            GrowthConfig(n=n0, n0=n0, m=1, p_t=p_t)

    def test_metadata_records_rule_choices(self):
        meta = GrowthConfig(n=10, n0=3, m=2, p_t=0.5, seed=1).metadata()
        assert meta["seed_topology"] == "ring"
        assert meta["p_t"] == 0.5
        assert "tf_rule" in meta and "pa_rule" in meta

    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_omitted_n0_and_seed_take_the_defaults(self, m):
        ring = growth.seed_ring_size(m)
        assert ring == max(m, 3)
        default = GrowthConfig(n=50, m=m, p_t=0.5)
        assert default == GrowthConfig(n=50, n0=None, m=m, p_t=0.5) == GrowthConfig(n=50, n0=ring, m=m, p_t=0.5, seed=0)
        assert default.metadata()["n0"] == ring

    def test_fields_are_keyword_only(self):
        with pytest.raises(TypeError):
            GrowthConfig(10, 3, 2, 0.5, 0)


class TestGenerate:
    def test_no_incoming_nodes_returns_seed_ring(self):
        g = generate_pa_tf(GrowthConfig(n=5, n0=5, m=3, p_t=0.7, seed=1))
        assert g.node_count == 5
        assert g.edge_count == 5
        assert all(g.degree(v) == 2 for v in range(5))

    @pytest.mark.parametrize("m,p_t", [(1, 0.0), (2, 0.0), (2, 0.6), (3, 0.9)])
    def test_exact_edge_budget(self, m, p_t):
        config = GrowthConfig(n=2000, n0=max(m, 3), m=m, p_t=p_t, seed=3)
        g = generate_pa_tf(config)
        assert g.node_count == config.n
        assert g.edge_count == config.n0 + m * (config.n - config.n0)

    def test_simple_graph_invariants(self):
        g = generate_pa_tf(GrowthConfig(n=800, n0=3, m=3, p_t=0.8, seed=5))
        for v in range(g.node_count):
            nb = g.neighbors(v)
            assert v not in nb
            assert len(set(nb)) == len(nb)

    def test_same_seed_same_graph(self):
        config = GrowthConfig(n=400, n0=3, m=2, p_t=0.5, seed=11)
        assert generate_pa_tf(config) == generate_pa_tf(config)

    def test_different_seed_different_graph(self):
        a = generate_pa_tf(GrowthConfig(n=400, n0=3, m=2, p_t=0.5, seed=11))
        b = generate_pa_tf(GrowthConfig(n=400, n0=3, m=2, p_t=0.5, seed=12))
        assert a != b

    def test_pure_preferential_attachment_has_low_clustering(self):
        values = [
            average_clustering_coefficient(
                generate_pa_tf(GrowthConfig(n=2000, n0=3, m=2, p_t=0.0, seed=s))
            )
            for s in range(10)
        ]
        assert float(np.mean(values)) < 0.05

    def test_triad_formation_raises_clustering_on_paired_seeds(self):
        increased = 0
        for s in range(10):
            low = average_clustering_coefficient(
                generate_pa_tf(GrowthConfig(n=1000, n0=3, m=2, p_t=0.0, seed=s))
            )
            high = average_clustering_coefficient(
                generate_pa_tf(GrowthConfig(n=1000, n0=3, m=2, p_t=0.9, seed=s))
            )
            increased += high > low
        assert increased >= 9


class TestGrowthInternals:
    @pytest.mark.parametrize("m", [1, 2, 5])
    @pytest.mark.parametrize("p_t", [0.0, 0.5, 1.0])
    def test_pilot_cc_equals_graph_cc(self, m, p_t):
        config = GrowthConfig(n=600, n0=max(m, 3), m=m, p_t=p_t, seed=17)
        pilot = growth._pilot_mean_cc(config.n, config.m, config.p_t, [config.seed])
        assert pilot == average_clustering_coefficient(generate_pa_tf(config))

    @pytest.mark.parametrize(
        "config",
        [
            *(GrowthConfig(n=400, n0=3, m=1, p_t=p_t, seed=5) for p_t in (0.0, 0.5, 1.0)),
            *(GrowthConfig(n=400, n0=5, m=5, p_t=p_t, seed=6) for p_t in (0.0, 0.5, 1.0)),
        ],
        ids=repr,
    )
    def test_replica_cc_equals_graph_cc(self, config):
        graph = generate_pa_tf(config)
        # the grown pairs pass the checks that Graph._from_pairs leaves out: no self-loop, no repeat
        endpoints = growth._grow(config)
        assert Graph.from_edges(zip(endpoints[0::2], endpoints[1::2]), config.n) == graph
        # the kernel's coefficient equals triangles counted edge by edge in growth
        # order, summed in a plain loop over the nodes
        neighbor_sets: list[set[int]] = [set() for _ in range(config.n)]
        triangles = [0] * config.n
        for u, w in zip(endpoints[0::2], endpoints[1::2]):
            for x in neighbor_sets[u] & neighbor_sets[w]:
                triangles[x] += 1
                triangles[u] += 1
                triangles[w] += 1
            neighbor_sets[u].add(w)
            neighbor_sets[w].add(u)
        total = 0.0
        for t, k in zip(triangles, map(len, neighbor_sets)):
            total += t / (k * (k - 1) / 2) if k >= 2 else 0.0
        assert average_clustering_coefficient(graph) == total / config.n

    def test_tf_partner_uniform_over_target_neighbors(self):
        # ring 0-1-2-3; node 4 attaches to a uniform ring node t, then (p_t=1)
        # to one of t's two ring neighbors, uniformly: 8 ordered outcomes
        seeds = 4000
        counts: dict[tuple[int, int], int] = {}
        for seed in range(seeds):
            endpoints = growth._grow(GrowthConfig(n=5, n0=4, m=2, p_t=1.0, seed=seed))
            assert endpoints[-4::2] == [4, 4]  # node 4 adds the last two edges
            outcome = tuple(endpoints[-3::2])
            counts[outcome] = counts.get(outcome, 0) + 1
        expected = {(t, (t + d) % 4) for t in range(4) for d in (1, 3)}
        assert set(counts) == expected
        chi_square = sum((c - seeds / 8) ** 2 / (seeds / 8) for c in counts.values())
        assert chi_square < 24.32  # chi-square 0.999 quantile, 7 degrees of freedom

    def test_dense_growth_meets_budget_through_fallback(self):
        # with n0=6 and m=5 most neighbors of a PA target are already adjacent
        # to the incoming node, so TF draws miss and the exact scan runs
        config = GrowthConfig(n=40, n0=6, m=5, p_t=1.0, seed=3)
        endpoints = growth._grow(config)
        neighbor_lists = [[] for _ in range(config.n)]
        for u, w in zip(endpoints[0::2], endpoints[1::2]):
            neighbor_lists[u].append(w)
            neighbor_lists[w].append(u)
        assert generate_pa_tf(config).degrees() == tuple(map(len, neighbor_lists))
        for v in range(config.n0, config.n):
            own_edges = [u for u in neighbor_lists[v] if u < v]
            assert len(own_edges) == config.m
            assert len(set(neighbor_lists[v])) == len(neighbor_lists[v])
            assert v not in neighbor_lists[v]
        assert growth._grow(config) == endpoints

    @pytest.mark.parametrize("config", list(STREAM_DIGESTS), ids=repr)
    def test_random_stream_is_pinned(self, config):
        endpoints = np.array(growth._grow(config), np.int64)
        assert hashlib.sha256(endpoints.tobytes()).hexdigest() == STREAM_DIGESTS[config]


class TestDeriveConfig:
    def test_email_dnc_shape(self):
        config = derive_growth_config(1866, 4384)
        assert config.n == 1866
        assert config.m == 2

    def test_email_enron_shape(self):
        assert derive_growth_config(36265, 111179).m == 3

    def test_m_floors_at_one(self):
        config = derive_growth_config(10, 4)
        assert config.m == 1
        assert config.n0 == 3

    def test_tiny_network_padded_to_seed(self):
        assert derive_growth_config(2, 1).n == 3

    @pytest.mark.parametrize("edges", [float("nan"), float("inf"), -5, 2.5])
    def test_invalid_edge_count_rejected(self, edges):
        with pytest.raises(ConfigError, match="edges"):
            derive_growth_config(10, edges)


class TestCalibrate:
    def test_target_at_lower_endpoint_returns_zero(self):
        baseline = float(
            np.mean(
                [
                    average_clustering_coefficient(
                        generate_pa_tf(GrowthConfig(n=500, n0=3, m=2, p_t=0.0, seed=derive_seed(0, i)))
                    )
                    for i in range(5)
                ]
            )
        )
        result = calibrate_pt(500, 2, baseline, tolerance=0.02, pilots=5, seed=0)
        assert result.p_t == 0.0
        assert abs(result.achieved_cc - baseline) <= 0.02

    def test_unreachable_target_reports_max_achievable(self):
        with pytest.raises(CalibrationError) as info:
            calibrate_pt(500, 2, 0.99, tolerance=0.02, pilots=3, seed=0)
        assert info.value.achievable_cc is not None
        assert info.value.achievable_cc < 0.99

    def test_converges_to_moderate_target(self):
        result = calibrate_pt(600, 2, 0.2, tolerance=0.03, pilots=3, seed=1)
        assert abs(result.achieved_cc - 0.2) <= 0.03
        assert result.iterations <= 20
        assert 0.0 < result.p_t < 1.0

    @staticmethod
    def known_curve(n, m, p_t, pilot_seeds):
        return 0.05 + 0.4 * p_t**2

    def test_regula_falsi_needs_fewer_probes_than_bisection(self, monkeypatch):
        def curve(p_t):
            return self.known_curve(0, 0, p_t, [])

        calls = []

        def pilot_mean_cc(n, m, p_t, pilot_seeds):
            calls.append(p_t)
            return curve(p_t)

        monkeypatch.setattr(growth, "_pilot_mean_cc", pilot_mean_cc)
        target, tolerance = 0.25, 0.005
        result = calibrate_pt(1000, 2, target, tolerance=tolerance, pilots=3, seed=0)
        assert abs(result.achieved_cc - target) <= tolerance
        assert result.probes == [[p, curve(p)] for p in calls]
        assert calls[:2] == [0.0, 1.0]
        assert result.probes[-1] == [result.p_t, result.achieved_cc]
        assert result.iterations == len(calls) - 2
        assert result.pilot_networks == 3 * len(calls)

        low, high, bisection_iterations = 0.0, 1.0, 0
        while True:
            bisection_iterations += 1
            mid = (low + high) / 2.0
            if abs(curve(mid) - target) <= tolerance:
                break
            low, high = (mid, high) if curve(mid) < target else (low, mid)
        assert result.iterations < bisection_iterations

    @pytest.mark.parametrize("target,achievable", [(0.01, 0.05), (0.6, 0.45)])
    def test_out_of_range_target_on_known_curve(self, monkeypatch, target, achievable):
        monkeypatch.setattr(growth, "_pilot_mean_cc", self.known_curve)
        with pytest.raises(CalibrationError) as info:
            calibrate_pt(1000, 2, target, tolerance=0.005, pilots=3, seed=0)
        assert info.value.achievable_cc == pytest.approx(achievable)

    def test_iteration_budget_exhausted(self, monkeypatch):
        # a curve that steps over the target: no p_t comes within tolerance
        calls = []

        def step_curve(n, m, p_t, pilot_seeds):
            calls.append(p_t)
            return self.known_curve(n, m, float(p_t >= 0.5), pilot_seeds)

        monkeypatch.setattr(growth, "_pilot_mean_cc", step_curve)
        with pytest.raises(CalibrationError, match="after 20 iterations") as info:
            calibrate_pt(1000, 2, 0.25, tolerance=0.005, pilots=3, seed=0)
        assert info.value.achievable_cc is None
        assert len(calls) == 2 + 20

    @pytest.mark.parametrize(
        "target, tolerance, pilots, name",
        [(0.2, 0.0, 5, "tolerance"), (0.2, float("nan"), 5, "tolerance"), (0.2, float("inf"), 5, "tolerance"),
         (0.2, True, 5, "tolerance"), (float("nan"), 0.02, 5, "target_cc"), (0.2, 0.02, 1.5, "pilots")],
        ids=["zero", "nan", "inf", "bool", "nan-target", "fractional-pilots"],
    )
    def test_invalid_tolerance(self, monkeypatch, target, tolerance, pilots, name):
        monkeypatch.setattr(growth, "_pilot_mean_cc", None)  # a pilot would raise TypeError
        with pytest.raises(ConfigError, match=name):
            calibrate_pt(100, 2, target, tolerance=tolerance, pilots=pilots)


def test_negative_master_seed_rejected_before_any_pilot(monkeypatch):
    monkeypatch.setattr(growth, "_pilot_mean_cc", None)  # a pilot would raise TypeError
    with pytest.raises(ConfigError, match="seed"):
        calibrate_pt(100, 2, 0.2, seed=-1)


def test_derive_seed_is_stable_and_distinct():
    a = derive_seed(42, 0, 1)
    assert a == derive_seed(42, 0, 1)
    assert a != derive_seed(42, 0, 2)
    assert a != derive_seed(43, 0, 1)
