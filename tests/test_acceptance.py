"""Acceptance gate: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they pass.
"""

import math
import time

import numpy as np
import pytest

from adjfactor import (
    Graph,
    GrowthConfig,
    average_clustering_coefficient,
    calibrate_pt,
    census,
    degree_ccdf_slope,
    emg_model,
    enumerate_triangles,
    erfc,
    fit,
    generate_pa_tf,
    load_edge_list,
    mnd,
    one_sample_t_test,
    run_experiment,
    s_complex_model,
    student_t_cdf,
    t_adjacency_factor,
)
from adjfactor.census import DistributionSeries
from conftest import find_dataset, small_experiment_config
from helpers import (
    brute_s_factor,
    brute_t_factor,
    brute_triangles,
    complete_graph,
    er_graph,
    path_graph,
    series_erfc,
)
from test_stats import bisect_critical_t

TABLE_2_REAL = {
    "email-enron": {"s_complex": (0.25, 0.75, 0.19), "emg": (0.02, 6.82, 5.08)},
    "email-dnc": {"s_complex": (0.07, 0.50, 0.18), "emg": (0.07, 10.86, 5.06)},
    "email-eu": {"s_complex": (0.06, 0.33, 0.33), "emg": (0.05, 13.81, 7.58)},
    "uni-kiel": {"s_complex": (0.16, 0.15, 0.67), "emg": (0.03, 0.37, 0.57)},
    "phone-calls": {"s_complex": (0.65, 0.44, 0.55), "emg": (0.43, 0.00, 0.00)},
}


def passed(name: str) -> None:
    print(f"[PASS] {name}")


def test_census_matches_brute_force_on_seeded_random_graphs():
    start = time.monotonic()
    mismatches = 0
    p_values = (0.2, 0.4, 0.6)
    for i in range(50):
        g = er_graph(n=10 + (i * 7) % 21, p=p_values[i % 3], seed=1000 + i)
        if enumerate_triangles(g) != brute_triangles(g):
            mismatches += 1
        s = census(g, "s")
        for (u, v), factor in zip(s.units, s.factors):
            if factor != brute_s_factor(g, u, v):
                mismatches += 1
        t = census(g, "t")
        for tri, factor in zip(t.units, t.factors):
            if factor != brute_t_factor(g, tri):
                mismatches += 1
    elapsed = time.monotonic() - start
    assert mismatches == 0
    assert elapsed < 10.0
    passed(f"census oracle: 50 seeded random graphs, 0 mismatches, {elapsed:.1f}s")


def test_quad_rule():
    k4 = complete_graph(4)
    assert (census(k4, "s").factors == 2).all()
    assert (census(k4, "t").factors == 0).all()
    pendant = Graph.from_edges([(0, 1), (1, 2), (0, 2), (0, 3), (1, 3)])
    assert t_adjacency_factor(pendant, (0, 1, 2)) == 1
    passed("quad rule: K4 S factors 2, T factors 0; pendant triangle counts exactly 1")


def test_clustering_coefficient():
    assert average_clustering_coefficient(complete_graph(3)) == 1.0
    assert average_clustering_coefficient(path_graph(4)) == 0.0
    dataset = find_dataset("dnc")
    if dataset is None:
        passed("clustering coefficient: K3=1.0, path=0.0 (Email-DNC dataset not present, skipped)")
        return
    graph, report = load_edge_list(dataset)
    avg_cc = average_clustering_coefficient(graph)
    assert abs(avg_cc - 0.21) <= 0.02
    passed(
        f"clustering coefficient: K3=1.0, path=0.0, Email-DNC avg CC {avg_cc:.3f} "
        f"(nodes={report.nodes}, edges={report.edges})"
    )


def test_growth_model():
    start = time.monotonic()
    n, m = 10_000, 2

    increased = 0
    slope_graph = None
    for seed in range(10):
        low_cfg = GrowthConfig(n=n, n0=3, m=m, p_t=0.0, seed=seed)
        low = generate_pa_tf(low_cfg)
        assert low.edge_count == low_cfg.seed_edge_count() + m * (n - low_cfg.n0)
        high = generate_pa_tf(GrowthConfig(n=n, n0=3, m=m, p_t=0.9, seed=seed))
        assert high.edge_count == low.edge_count
        if average_clustering_coefficient(high) > average_clustering_coefficient(low):
            increased += 1
        if seed == 0:
            slope_graph = low
    assert increased >= 9

    calibration = calibrate_pt(1866, m, target_cc=0.21, tolerance=0.02, pilots=5, seed=0)
    assert abs(calibration.achieved_cc - 0.21) <= 0.02
    assert calibration.iterations <= 20

    slope = degree_ccdf_slope(slope_graph, d_min=m, d_max=int(math.isqrt(n)))
    assert -3.5 <= slope <= -1.5

    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    passed(
        f"growth model: exact edge budget, CC raised in {increased}/10 paired seeds, "
        f"calibration in {calibration.iterations} iterations, CCDF slope {slope:.2f}, {elapsed:.1f}s"
    )


def test_erfc():
    assert abs(erfc(1.0) - series_erfc(1.0)) <= 1e-9
    assert abs(erfc(1.0) - 0.157299207) <= 1e-9
    for x in np.linspace(-5.0, 5.0, 100):
        assert abs(erfc(float(-x)) - (2.0 - erfc(float(x)))) <= 1e-12
    passed("erfc: series oracle at x=1 within 1e-9, reflection identity within 1e-12 on 100 points")


def test_emg():
    for x in np.linspace(-5.0, 40.0, 200):
        expected = 0.43 * math.exp(-0.43 * (x - 2.0)) if x >= 2.0 else 0.0
        assert abs(emg_model(float(x), 0.43, 2.0, 0.0) - expected) <= 1e-12

    quad = pytest.importorskip("scipy.integrate").quad
    lam, mu, sigma = 0.02, 6.82, 5.08
    low = mu - 10 * sigma - 20 / lam
    high = mu + 10 * sigma + 20 / lam
    integral, _ = quad(lambda x: float(emg_model(x, lam, mu, sigma)), low, high, limit=400)
    assert abs(integral - 1.0) <= 1e-6
    passed("EMG: integral 1 within 1e-6 for (0.02, 6.82, 5.08); sigma=0 limit exact to 1e-12")


def make_series(x, freq):
    return DistributionSeries(
        support=np.asarray(x), counts=np.ones(len(x), dtype=np.int64), freq=np.asarray(freq)
    )


def test_fit_recovery():
    start = time.monotonic()
    x_edge = np.arange(1, 51)
    x_tri = np.arange(0, 61)
    for network, models in TABLE_2_REAL.items():
        a, b, c = models["s_complex"]
        result = fit("s_complex", make_series(x_edge, s_complex_model(x_edge, a, b, c)))
        assert result.sse < 1e-8, network
        for name, true in zip(("a", "b", "c"), (a, b, c)):
            assert abs(result.params[name] - true) / true < 0.01, (network, name)

        lam, mu, sigma = models["emg"]
        result = fit("emg", make_series(x_tri, emg_model(x_tri, lam, mu, sigma)))
        assert result.sse < 1e-8, network
        for name, true in zip(("lam", "mu", "sigma"), (lam, mu, sigma)):
            # 5% relative; for zero-valued parameters an ill-defined ratio is
            # replaced by a tight absolute band
            assert abs(result.params[name] - true) <= 0.05 * max(abs(true), 0.1), (network, name)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    passed(f"fit recovery: all five networks, both models, within 1%/5% and sse<1e-8, {elapsed:.1f}s")


def test_mnd():
    assert mnd([1, 2], [1.0, 2.0], np.array([2.0, 1.0])) == 0.75
    freq = emg_model(np.arange(0, 30), 0.1, 5.0, 2.0)
    assert mnd(np.arange(0, 30), freq, freq) == 0.0
    passed("MND: hand example exactly 0.75, MND(f, f) = 0")


def test_t_test():
    critical = bisect_critical_t(9, upper_tail=0.005)
    assert abs(critical - 3.2498) <= 5e-4
    assert abs(student_t_cdf(3.2498, 9) - 0.995) <= 1e-4
    result = one_sample_t_test(list(range(1, 11)), 0.0)
    assert abs(result.t_stat - 5.745) <= 1e-3
    assert result.significant_at_99
    passed("t-test: critical t(df=9, 99%) = 3.2498 within 5e-4; {1..10} vs 0 significant at t=5.745")


def _check_qualitative(report):
    entry = report["networks"][0]
    assert entry["status"] == "ok"
    emg_section = entry["models"]["emg"]
    assert emg_section["real"]["mnd"] < emg_section["reference"]["mnd"]
    for model in ("s_complex", "emg"):
        for name, t_result in entry["models"][model]["t_tests"].items():
            assert t_result["significant_at_99"] == (t_result["p_value"] < 0.01)
            if t_result["sample_sd"] == 0.0:
                continue
            replicas = [r["params"][name] for r in entry["models"][model]["replicas"]]
            gap = abs(float(np.mean(replicas)) - entry["models"][model]["real"]["params"][name])
            spread = t_result["sample_sd"] / math.sqrt(len(replicas))
            if spread > 0 and gap > 10 * spread:
                assert t_result["significant_at_99"], (model, name)
    return entry


def test_end_to_end_qualitative(experiment_run, tmp_path):
    report, _, code = experiment_run
    assert code == 0
    entry = _check_qualitative(report)
    emg_section = entry["models"]["emg"]
    line = (
        f"end-to-end: real EMG MND {emg_section['real']['mnd']:.2f} < "
        f"reference MND {emg_section['reference']['mnd']:.2f}; significance flags consistent"
    )
    dataset = find_dataset("dnc")
    if dataset is not None:
        config = small_experiment_config(dataset, tmp_path / "real_run", replicas=3)
        real_report, real_code = run_experiment(config)
        assert real_code == 0
        _check_qualitative(real_report)
        line += " (synthetic and Email-DNC)"
    passed(line)


def test_determinism(synthetic_input, tmp_path):
    first = small_experiment_config(synthetic_input, tmp_path / "a")
    second = small_experiment_config(synthetic_input, tmp_path / "b")
    parallel = small_experiment_config(synthetic_input, tmp_path / "c", workers=2)
    run_experiment(first)
    run_experiment(second)
    run_experiment(parallel)
    report_a = (tmp_path / "a" / "report.json").read_bytes()
    assert report_a == (tmp_path / "b" / "report.json").read_bytes()
    assert report_a == (tmp_path / "c" / "report.json").read_bytes()
    assert (tmp_path / "a" / "table2.csv").read_bytes() == (tmp_path / "b" / "table2.csv").read_bytes()
    passed("determinism: byte-identical reports across reruns and worker counts")
