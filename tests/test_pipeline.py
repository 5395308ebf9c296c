import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

from adjfactor import (
    ConfigError,
    ExperimentConfig,
    Graph,
    GrowthConfig,
    generate_pa_tf,
    graph as graph_module,
    one_sample_t_test,
    pipeline,
    run_experiment,
    write_edge_list,
)
from adjfactor.census import census, read_distribution_csv, to_distribution, write_distribution_csv
from adjfactor.cli import main
from adjfactor.models import model_function
from conftest import small_experiment_config
from helpers import BAD_LOG_BASES, path_graph

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
        assert set(report["config"]) == {
            "datasets",
            "replicas",
            "seed",
            "calibration_tolerance",
            "calibration_pilots",
            "log_base",
            "reference_rule",
        }


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

    def test_names_that_leave_the_out_dir_are_replaced(self, synthetic_input, tmp_path):
        # stems "..", "." and "report.json" would write outside --out, into it, or over the report
        inputs = ["...txt", "..txt", "report.json.txt", "net.txt"]
        (tmp_path / "in").mkdir()
        for name in inputs:
            (tmp_path / "in" / name).write_bytes(synthetic_input.read_bytes())
        argv = ["experiment", *(str(tmp_path / "in" / name) for name in inputs), "--out",
                str(tmp_path / "out" / "run"), "--replicas", "1", "--pilots", "1"]
        assert main(argv) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in", "out"]
        assert sorted(p.name for p in (tmp_path / "in").iterdir()) == sorted(inputs)
        assert [p.name for p in (tmp_path / "out").iterdir()] == ["run"]
        run = tmp_path / "out" / "run"
        names = ["network_0", "network_1", "network_2", "net"]
        assert sorted(p.name for p in run.iterdir()) == sorted(names + ["report.json", "table1.csv", "table2.csv"])
        assert [n["name"] for n in json.loads((run / "report.json").read_text())["networks"]] == names
        artifacts = sorted(p.name for p in (run / "net").iterdir())
        assert len(artifacts) == 15  # 7 of the real network, 8 of the replica
        for name in names[:3]:
            assert sorted(p.name for p in (run / name).iterdir()) == artifacts

    def test_non_utf8_dataset_marks_ingest_failure_and_continues(self, synthetic_input, tmp_path):
        binary = tmp_path / "binary.txt"
        binary.write_bytes(b"\xff\xfe1 2\n")
        config = ExperimentConfig(
            datasets=[str(binary), str(synthetic_input)],
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
        assert (tmp_path / "partial" / "report.json").exists()

    def test_invalid_config_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ExperimentConfig(datasets=["x"], out_dir=tmp_path, replicas=0)

    @pytest.mark.parametrize(
        "setting",
        [{"workers": 0}, {"seed": -1}, {"calibration_tolerance": 0.0}, {"calibration_tolerance": float("nan")},
         {"calibration_pilots": 0}, {"reference_rule": "median"}, {"replicas": 2.5}, {"seed": 1.5},
         {"workers": 1.5}, {"calibration_pilots": 1.5}, {"replicas": True}, {"seed": True},
         {"calibration_tolerance": True}, {"datasets": "net.txt"}, {"datasets": Path("net.txt")}, {"datasets": []},
         {"datasets": [1]}, {"datasets": [None]}, {"datasets": [b"net.txt"]}, {"out_dir": 1}, {"out_dir": None}],
        ids=["workers", "seed", "tolerance", "nan-tolerance", "pilots", "reference_rule", "fractional-replicas",
             "fractional-seed", "fractional-workers", "fractional-pilots", "bool-replicas", "bool-seed",
             "bool-tolerance", "one-path-string", "one-path", "no-datasets", "int-dataset", "none-dataset",
             "bytes-dataset", "int-out_dir", "none-out_dir"],
    )
    def test_invalid_setting_rejected_before_any_work(self, synthetic_input, tmp_path, monkeypatch, setting):
        monkeypatch.chdir(tmp_path)  # so a directory made from a bad relative out_dir would show below
        with pytest.raises(ConfigError, match=next(iter(setting))):
            run_experiment(small_experiment_config(synthetic_input, **{"out_dir": tmp_path / "out", **setting}))
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("log_base", BAD_LOG_BASES)
    def test_bad_log_base_rejected_before_any_output(self, synthetic_input, tmp_path, log_base):
        out_dir = tmp_path / "out"
        with pytest.raises(ConfigError, match="log_base"):
            run_experiment(small_experiment_config(synthetic_input, out_dir, log_base=log_base))
        assert not out_dir.exists()


def _with_k5s(graph: Graph, count: int) -> Graph:
    """The graph plus `count` disjoint 5-cliques, numbered after its nodes."""
    edges = list(graph.edges())
    for k in range(count):
        first = graph.node_count + 5 * k
        edges += [(first + i, first + j) for i in range(5) for j in range(i + 1, 5)]
    return Graph.from_edges(edges)


def _tree_on_cluster() -> Graph:
    """A 30-node Holme-Kim cluster grown to 1000 nodes as a random recursive tree."""
    rng = np.random.default_rng(0)
    cluster = generate_pa_tf(GrowthConfig(n=30, n0=3, m=3, p_t=0.8, seed=2))
    return Graph.from_edges([*cluster.edges(), *((v, int(rng.integers(v))) for v in range(30, 1000))])


# case -> (input graph or edge-list text, exit code, failed stage, files left in the network directory)
REAL_FAILURE_FILES = {"ingest.json", "real_s_distribution.csv"}
REAL_FILES = {f"real_{kind}_{name}" for kind in "st" for name in (
    "distribution.csv", "fit.json", "model_curve.csv")}
FAILURE_CASES = {
    # no triangles: the S fit has no support >= 1
    "real_fit": (lambda: path_graph(50), 3, "census_and_fit_real", REAL_FAILURE_FILES),
    # fits succeed, but the K5s lift CC to 0.80, beyond p_t=1 (0.74)
    "calibration": (
        lambda: _with_k5s(generate_pa_tf(GrowthConfig(n=150, n0=3, m=2, p_t=0.45, seed=11)), 60),
        3, "calibration", {"ingest.json"} | REAL_FILES,
    ),
    # every edge has factor 3 and CC is 1: both stages fail, the earlier one is reported
    "both": (lambda: _with_k5s(Graph.from_edges([]), 20), 3, "census_and_fit_real",
             REAL_FAILURE_FILES),
    # a self-loop leaves one isolated node: no edges to census (a data error),
    # and CC 0 is below what p_t=0 reaches
    "empty_census": (lambda: "7 7\n", 2, "census_and_fit_real", {"ingest.json"}),
    "empty_graph": (lambda: "# no edges\n", 2, "summary", {"ingest.json"}),
    # CC 0.006 and E/N about 1.05: m=1 and p_t=0, so each replica's S census has
    # one support point >= 1; every replica runs, and the first to fail is reported
    "replica": (
        _tree_on_cluster, 3, "replicas",
        {"ingest.json", "growth_config.json"} | REAL_FILES
        | {f"replica_{r:02d}{suffix}" for r in range(2) for suffix in (".edges", "_s_distribution.csv")},
    ),
}


@pytest.fixture(scope="module")
def failure_run(tmp_path_factory):
    """(exit code, report entry, {file name: bytes} of the network directory) of one case at one worker count."""
    root = tmp_path_factory.mktemp("failures")
    runs = {}

    def run(case: str, workers: int):
        if (case, workers) not in runs:
            dataset = root / f"{case}.txt"
            if not dataset.exists():
                content = FAILURE_CASES[case][0]()
                if isinstance(content, str):
                    dataset.write_text(content)
                else:
                    write_edge_list(content, dataset)
            out_dir = root / f"{case}_w{workers}"
            config = ExperimentConfig(
                datasets=[str(dataset)], out_dir=out_dir, replicas=2, seed=1,
                calibration_pilots=2, workers=workers,
            )
            report, code = run_experiment(config)
            (entry,) = report["networks"]
            files = {p.name: p.read_bytes() for p in (out_dir / entry["name"]).iterdir()}
            runs[case, workers] = code, entry, files
        return runs[case, workers]

    return run


class TestFailureParity:
    """A failed network ends the same way whether or not stages overlap on a pool."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("case", list(FAILURE_CASES))
    def test_same_outcome_at_every_worker_count(self, failure_run, case, workers):
        _, expected_code, expected_stage, expected_files = FAILURE_CASES[case]
        code, entry, files = failure_run(case, workers)
        assert code == expected_code
        assert entry["status"] == "failed"
        assert entry["failed_stage"] == expected_stage
        assert "replicas" not in entry and "models" not in entry
        assert ("growth" in entry) == (expected_stage == "replicas")
        assert set(files) == expected_files
        # the same report entry, and every file byte for byte
        assert (code, entry, files) == failure_run(case, 1)


class TestFailureClasses:
    """Only data conditions are data errors; any other error is a bug and escapes."""

    @pytest.mark.parametrize(
        "target, error",
        # census runs for the real network and calibrate_pt for calibration; the
        # pipeline calls generate_pa_tf only for replicas (pilots call it in
        # growth's namespace); a monkeypatch reaches only this process, so all
        # three run inline
        [("census", ValueError), ("calibrate_pt", ZeroDivisionError), ("generate_pa_tf", TypeError)],
    )
    def test_bug_escapes(self, synthetic_input, tmp_path, monkeypatch, target, error):
        def broken(*args, **kwargs):
            raise error("a bug, not a data condition")

        monkeypatch.setattr(pipeline, target, broken)
        config = small_experiment_config(synthetic_input, tmp_path / "out", workers=1)
        with pytest.raises(error, match="a bug"):
            run_experiment(config)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("log_base, error", [("10", TypeError), (0.0, ValueError)])
    def test_error_in_real_fit_escapes(self, synthetic_input, tmp_path, log_base, error, workers):
        # set after construction, the log base passes the config's check and
        # reaches the S fit, whose own check raises; the main process fits the
        # real network at every worker count
        config = small_experiment_config(synthetic_input, tmp_path / "out", workers=workers)
        config.log_base = log_base
        with pytest.raises(error, match="log_base"):
            run_experiment(config)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_error_writing_real_output_escapes(self, synthetic_input, tmp_path, workers):
        # a directory stands where the real S distribution is written, so the
        # main process raises while it fits the real network
        out_dir = tmp_path / "out"
        (out_dir / synthetic_input.stem / "real_s_distribution.csv").mkdir(parents=True)
        config = small_experiment_config(synthetic_input, out_dir, workers=workers)
        with pytest.raises(IsADirectoryError):
            run_experiment(config)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_error_in_calibration_escapes(self, synthetic_input, tmp_path, workers):
        # set after construction, the pilot count passes the config's check and
        # reaches calibration as a task argument, so with workers > 1
        # calibration's own check raises in a pool worker under any start method
        config = small_experiment_config(synthetic_input, tmp_path / "out", workers=workers)
        config.calibration_pilots = 0
        with pytest.raises(ConfigError, match="pilots"):
            run_experiment(config)


def test_every_output_file_identical_across_worker_counts(experiment_run, synthetic_input, tmp_path):
    _, serial_dir, _ = experiment_run
    parallel_dir = tmp_path / "parallel"
    run_experiment(small_experiment_config(synthetic_input, parallel_dir, workers=2))

    def tree(root):
        return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}

    serial, parallel = tree(serial_dir), tree(parallel_dir)
    assert sorted(serial) == sorted(parallel)
    assert len(serial) > 20
    for name, content in serial.items():
        assert parallel[name] == content, name


def test_main_process_runs_one_triangle_pass_per_network(synthetic_input, tmp_path, monkeypatch):
    # calibration's pilots and the replicas run on the pool; the real network's
    # census and fits reuse the pass its average CC ran. Workers keep their
    # own count, whatever the start method
    passes = []
    forward = graph_module._forward

    def counted(graph):
        passes.append(graph.node_count)
        return forward(graph)

    monkeypatch.setattr(graph_module, "_forward", counted)
    datasets = [str(synthetic_input)] * 2
    config = small_experiment_config(synthetic_input, tmp_path / "out", datasets=datasets, workers=2)
    _, code = run_experiment(config)
    assert code == 0
    assert passes == [600, 600]


def test_pool_is_no_larger_than_the_replica_stage(synthetic_input, tmp_path, monkeypatch):
    # no stage has more than `replicas` tasks in flight, and a forked pool
    # starts all its workers at the first task; the recorder starts none
    asked = []

    def recorder(max_workers):
        asked.append(max_workers)
        return pipeline._Inline()

    monkeypatch.setattr(pipeline, "ProcessPoolExecutor", recorder)
    config = small_experiment_config(synthetic_input, tmp_path / "out", workers=64, replicas=2)
    _, code = run_experiment(config)
    assert code == 0
    assert asked == [2]


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


class TestOutputBytes:
    """Every CSV ends its rows in CR LF (csv's default dialect); every JSON document is indented, key-sorted
    and ends in a newline, whether it goes to a file or to an open handle."""

    def test_model_curve_csv(self, experiment_run):
        report, out_dir, _ = experiment_run
        entry = report["networks"][0]
        for kind, model in (("s", "s_complex"), ("t", "emg")):
            real = entry["models"][model]["real"]
            series = read_distribution_csv(out_dir / entry["name"] / f"real_{kind}_distribution.csv")
            x, _ = series.restrict(real["support_min"])
            curve = model_function(model, real["params"], log_base=report["config"]["log_base"])(x)
            rows = "".join(f"{xi!r},{vi!r}\r\n" for xi, vi in zip(x.tolist(), curve.tolist()))
            written = (out_dir / entry["name"] / f"real_{kind}_model_curve.csv").read_bytes()
            assert written == f"x,model\r\n{rows}".encode("utf-8")

    def test_tables_of_a_hand_built_report(self, tmp_path):
        models = {
            "s_complex": {
                "real": {"params": {"a": 1.0, "b": 0.5, "c": 0.25}, "mnd": 0.375},
                "grown_mean_params": {"a": 1.004, "b": 0.496, "c": 0.3},
                "grown_mean_mnd": 0.2,
                "reference": {"mnd": 0.5},
            },
            "emg": {
                "real": {"params": {"lam": 2.0, "mu": 3.0, "sigma": 0.0}, "mnd": 0.0675},
                "grown_mean_params": {"lam": 1.5, "mu": 3.25, "sigma": 0.126},
                "grown_mean_mnd": 0.1,
                "reference": {"mnd": 0.75},
            },
        }
        report = {"networks": [
            {"name": "net,1", "status": "ok", "summary": {"nodes": 5, "edges": 7, "avg_cc": 0.123456},
             "models": models},
            {"name": "uncalibrated", "status": "failed", "summary": {"nodes": 3, "edges": 3, "avg_cc": 1.0}},
            {"name": "unreadable", "status": "failed"},
        ]}
        pipeline._write_tables(report, tmp_path)
        assert (tmp_path / "table1.csv").read_bytes() == (
            b'network,nodes,edges,avg_cc\r\n"net,1",5,7,0.1235\r\nuncalibrated,3,3,1.0000\r\n'
        )
        assert (tmp_path / "table2.csv").read_bytes() == (
            b"network,s_complex_a (real / grown),s_complex_b (real / grown),s_complex_c (real / grown),"
            b"s_complex_mnd (real / grown / ref),emg_lam (real / grown),emg_mu (real / grown),"
            b"emg_sigma (real / grown),emg_mnd (real / grown / ref)\r\n"
            b'"net,1",1.00 / 1.00,0.50 / 0.50,0.25 / 0.30,0.38 / 0.20 / 0.50,'
            b"2.00 / 1.50,3.00 / 3.25,0.00 / 0.13,0.07 / 0.10 / 0.75\r\n"
        )

    def test_json_to_a_handle_matches_the_file(self, tmp_path):
        payload = {"b": [1, 0.1], "a": {"é": None}}
        expected = '{\n  "a": {\n    "\\u00e9": null\n  },\n  "b": [\n    1,\n    0.1\n  ]\n}\n'
        handle = io.StringIO()
        pipeline._write_json(handle, payload)
        assert handle.getvalue() == expected
        pipeline._write_json(tmp_path / "payload.json", payload)
        assert (tmp_path / "payload.json").read_bytes() == expected.encode("utf-8")


class _PathLike:
    """An os.PathLike that is not a pathlib.Path."""

    def __init__(self, path):
        self.path = path

    def __fspath__(self):
        return str(self.path)


def test_every_file_target_takes_a_str_or_any_path_like(tmp_path):
    graph = path_graph(4)
    series = to_distribution(census(graph, "s"))
    for make in (str, _PathLike):
        out = tmp_path / make.__name__
        out.mkdir()
        write_edge_list(graph, make(out / "g.txt"))
        assert (out / "g.txt").read_text() == "0 1\n1 2\n2 3\n"
        write_distribution_csv(series, make(out / "s.csv"))
        assert (out / "s.csv").read_bytes() == b"factor,count,freq\r\n0,3,1.0\r\n"
        assert read_distribution_csv(make(out / "s.csv")).counts.tolist() == [3]
        pipeline._write_json(make(out / "p.json"), {"a": 1})
        assert (out / "p.json").read_text() == '{\n  "a": 1\n}\n'
