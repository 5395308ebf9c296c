import json
import math

import numpy as np
import pytest

from adjfactor import ExperimentConfig, run_experiment, one_sample_t_test, write_edge_list
from conftest import small_experiment_config
from helpers import path_graph

PARAM_NAMES = {"s_complex": ("a", "b", "c"), "emg": ("lam", "mu", "sigma")}


class TestReportContents:
    def test_network_completes(self, experiment_run):
        report, _, code = experiment_run
        assert code == 0
        entry = report["networks"][0]
        assert entry["status"] == "ok"
        assert entry["summary"]["nodes"] == 600
        assert len(entry["replicas"]) == 3

    def test_replica_sizes_match_real_network(self, experiment_run):
        report, _, _ = experiment_run
        entry = report["networks"][0]
        for replica in entry["replicas"]:
            assert replica["nodes"] == entry["summary"]["nodes"]

    def test_averages_equal_mean_of_replicas(self, experiment_run):
        report, _, _ = experiment_run
        entry = report["networks"][0]
        for model, names in PARAM_NAMES.items():
            section = entry["models"][model]
            for name in names:
                values = [r["params"][name] for r in section["replicas"]]
                assert section["grown_mean_params"][name] == pytest.approx(
                    float(np.mean(values)), abs=1e-12
                )
            mnds = [r["mnd"] for r in section["replicas"]]
            assert section["grown_mean_mnd"] == pytest.approx(float(np.mean(mnds)), abs=1e-12)

    def test_t_tests_recomputable_from_persisted_artifacts(self, experiment_run):
        report, out_dir, _ = experiment_run
        entry = report["networks"][0]
        net_dir = out_dir / entry["name"]
        for model, kind in (("s_complex", "s"), ("emg", "t")):
            section = entry["models"][model]
            persisted = [
                json.loads((net_dir / f"replica_{i:02d}_{kind}_fit.json").read_text())
                for i in range(len(section["replicas"]))
            ]
            for name in PARAM_NAMES[model]:
                samples = [p["params"][name] for p in persisted]
                expected = one_sample_t_test(samples, section["real"]["params"][name]).to_dict()
                assert section["t_tests"][name] == expected

    def test_significance_flags_consistent(self, experiment_run):
        report, _, _ = experiment_run
        entry = report["networks"][0]
        for model in PARAM_NAMES:
            for name, result in entry["models"][model]["t_tests"].items():
                assert result["significant_at_99"] == (result["p_value"] < 0.01)

    def test_artifacts_exist(self, experiment_run):
        report, out_dir, _ = experiment_run
        entry = report["networks"][0]
        net_dir = out_dir / entry["name"]
        expected = [
            "ingest.json",
            "growth_config.json",
            "real_s_distribution.csv",
            "real_t_distribution.csv",
            "real_s_fit.json",
            "real_t_fit.json",
            "real_s_model_curve.csv",
            "real_t_model_curve.csv",
            "replica_00.edges",
            "replica_00_s_distribution.csv",
            "replica_00_t_fit.json",
        ]
        for name in expected:
            assert (net_dir / name).exists(), name

    def test_report_excludes_execution_details(self, experiment_run):
        report, _, _ = experiment_run
        assert "workers" not in report["config"]
        assert "out_dir" not in report["config"]


class TestSingleReplica:
    def test_average_of_one_equals_the_replica(self, synthetic_input, tmp_path):
        config = small_experiment_config(synthetic_input, tmp_path / "one", replicas=1)
        report, code = run_experiment(config)
        assert code == 0
        entry = report["networks"][0]
        for model, names in PARAM_NAMES.items():
            section = entry["models"][model]
            only = section["replicas"][0]
            for name in names:
                assert section["grown_mean_params"][name] == only["params"][name]
            assert section["grown_mean_mnd"] == only["mnd"]
            assert section["t_tests"][names[0]] is None


class TestFailureHandling:
    def test_missing_dataset_marks_failure_and_continues(self, synthetic_input, tmp_path):
        config = ExperimentConfig(
            datasets=[str(tmp_path / "missing.txt"), str(synthetic_input)],
            out_dir=tmp_path / "partial",
            replicas=1,
            seed=5,
            calibration_pilots=2,
        )
        report, code = run_experiment(config)
        assert code == 2
        assert report["networks"][0]["status"] == "failed"
        assert report["networks"][0]["failed_stage"] == "ingest"
        assert report["networks"][1]["status"] == "ok"

    def test_unfittable_network_is_numeric_failure(self, tmp_path):
        path = tmp_path / "path_graph.txt"
        write_edge_list(path_graph(50), path)
        config = ExperimentConfig(
            datasets=[str(path)], out_dir=tmp_path / "numeric", replicas=1, seed=1,
            calibration_pilots=2,
        )
        report, code = run_experiment(config)
        assert code == 3
        entry = report["networks"][0]
        assert entry["status"] == "failed"
        assert entry["failed_stage"] == "census_and_fit_real"

    def test_colliding_names_made_unique(self, tmp_path):
        datasets = [tmp_path / "a_2.txt", tmp_path / "x" / "a.txt", tmp_path / "y" / "a.txt"]
        for path in datasets:
            path.parent.mkdir(exist_ok=True)
            path.write_text("not an edge\n")
        out_dir = tmp_path / "names"
        config = ExperimentConfig(datasets=[str(p) for p in datasets], out_dir=out_dir)
        report, code = run_experiment(config)
        assert code == 2
        names = [entry["name"] for entry in report["networks"]]
        assert names == ["a_2", "a", "a_2_2"]
        assert sorted(p.name for p in out_dir.iterdir() if p.is_dir()) == sorted(names)

    def test_invalid_config_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ExperimentConfig(datasets=["x"], out_dir=tmp_path, replicas=0)


class TestTableExports:
    def test_table1_row(self, experiment_run):
        report, out_dir, _ = experiment_run
        lines = (out_dir / "table1.csv").read_text().splitlines()
        assert lines[0] == "network,nodes,edges,avg_cc"
        name, nodes, edges, avg_cc = lines[1].split(",")
        assert (int(nodes), int(edges)) == (600, 1197)
        assert math.isclose(float(avg_cc), report["networks"][0]["summary"]["avg_cc"], abs_tol=1e-4)

    def test_table2_slash_format(self, experiment_run):
        report, out_dir, _ = experiment_run
        lines = (out_dir / "table2.csv").read_text().splitlines()
        assert "real / grown" in lines[0]
        cells = lines[1].split(",")
        entry = report["networks"][0]
        expected_a = (
            f"{entry['models']['s_complex']['real']['params']['a']:.2f} / "
            f"{entry['models']['s_complex']['grown_mean_params']['a']:.2f}"
        )
        assert cells[1] == expected_a
        assert cells[4].count("/") == 2
