import argparse
import inspect
import json
import math
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

import adjfactor
from adjfactor import ExperimentConfig, cli
from adjfactor.cli import main
from helpers import complete_graph, cycle_graph

from adjfactor import write_edge_list


@pytest.fixture
def k3_file(tmp_path):
    path = tmp_path / "k3.txt"
    path.write_text("0 1\n1 2\n0 2\n")
    return path


@pytest.fixture
def k4_file(tmp_path):
    path = tmp_path / "k4.txt"
    write_edge_list(complete_graph(4), path)
    return path


class TestSummarize:
    def test_k3_json(self, k3_file, capsys):
        assert main(["summarize", str(k3_file)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"nodes": 3, "edges": 3, "avg_cc": 1.0}

    def test_k3_csv(self, k3_file, capsys):
        assert main(["summarize", str(k3_file), "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "nodes,edges,avg_cc"
        assert lines[1] == "3,3,1.0"

    def test_empty_file(self, tmp_path, capsys):
        path = tmp_path / "empty.txt"
        path.write_text("")
        for fmt in ("json", "csv"):
            assert main(["summarize", str(path), "--format", fmt]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: empty graph\n"

    def test_missing_file(self, tmp_path, capsys):
        assert main(["summarize", str(tmp_path / "nope.txt")]) == 2

    def test_malformed_line_reported(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("0 1\nbroken line\n")
        assert main(["summarize", str(path)]) == 2
        assert "line 2" in capsys.readouterr().err


class TestCensus:
    def test_k4_s_distribution(self, k4_file, capsys):
        assert main(["census", str(k4_file), "--kind", "s"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "factor,count,freq"
        assert lines[1] == "2,6,1.0"

    def test_k4_t_distribution(self, k4_file, capsys):
        assert main(["census", str(k4_file), "--kind", "t"]) == 0
        assert capsys.readouterr().out.splitlines()[1] == "0,4,1.0"

    def test_no_triangles_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "c5.txt"
        write_edge_list(cycle_graph(5), path)
        dump = tmp_path / "units.csv"
        assert main(["census", str(path), "--kind", "t", "--per-unit", str(dump)]) == 2
        assert "no triangles" in capsys.readouterr().err
        assert not dump.exists()

    def test_out_and_per_unit_files(self, k4_file, tmp_path):
        out = tmp_path / "dist.csv"
        dump = tmp_path / "units.csv"
        code = main(["census", str(k4_file), "--kind", "s", "--out", str(out), "--per-unit", str(dump)])
        assert code == 0
        assert out.read_text().splitlines()[1] == "2,6,1.0"
        assert dump.read_text().splitlines()[0] == "u,v,factor"
        assert len(dump.read_text().splitlines()) == 7


class TestGenerate:
    def test_writes_network_and_metadata(self, tmp_path, capsys):
        out = tmp_path / "grown.txt"
        code = main(
            ["generate", "--nodes", "200", "-m", "2", "--pt", "0.4", "--seed", "9", "--out", str(out)]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["nodes"] == 200
        assert summary["edges"] == 3 + 2 * 197
        assert summary["avg_cc"] == adjfactor.average_clustering_coefficient(adjfactor.load_edge_list(out)[0])
        meta = json.loads((tmp_path / "grown.txt.meta.json").read_text())
        assert meta["seed"] == 9 and meta["seed_topology"] == "ring"

    def test_same_seed_same_bytes(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        argv = ["generate", "--nodes", "150", "-m", "2", "--pt", "0.5", "--seed", "3", "--out"]
        assert main(argv + [str(a)]) == 0
        assert main(argv + [str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("m", [2, 5])
    def test_omitted_seed_and_n0_are_the_library_defaults(self, tmp_path, capsys, m):
        argv = ["generate", "--nodes", "120", "-m", str(m), "--pt", "0.5", "--out"]
        outputs = []
        for extra, name in (([], "default.txt"), (["--seed", "0", "--n0", str(max(m, 3))], "explicit.txt")):
            assert main(argv + [str(tmp_path / name), *extra]) == 0
            meta = tmp_path / f"{name}.meta.json"
            outputs.append(((tmp_path / name).read_bytes(), meta.read_bytes(), capsys.readouterr().out))
        assert outputs[0] == outputs[1]

    def test_infeasible_config(self, tmp_path, capsys):
        code = main(
            ["generate", "--nodes", "10", "-m", "5", "--n0", "3", "--pt", "0", "--seed", "1",
             "--out", str(tmp_path / "x.txt")]
        )
        assert code == 2


class TestCalibrate:
    def test_reachable_target(self, capsys):
        code = main(
            ["calibrate", "--nodes", "300", "-m", "2", "--target-cc", "0.2",
             "--tolerance", "0.05", "--pilots", "2", "--seed", "4"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["achieved_cc"] - 0.2) <= 0.05

    def test_unreachable_target_is_numeric_failure(self, capsys):
        code = main(
            ["calibrate", "--nodes", "300", "-m", "2", "--target-cc", "0.99",
             "--pilots", "2", "--seed", "4"]
        )
        assert code == 3
        assert "achievable" in capsys.readouterr().err

    def test_defaults_are_the_library_s(self, capsys):
        assert main(["calibrate", "--nodes", "300", "-m", "2", "--target-cc", "0.2"]) == 0
        assert json.loads(capsys.readouterr().out) == asdict(adjfactor.calibrate_pt(300, 2, 0.2))


class TestFit:
    def test_fit_from_csv(self, tmp_path, capsys):
        import numpy as np
        from adjfactor import s_complex_model

        x = np.arange(1, 30)
        freq = s_complex_model(x, 0.3, 0.7, 0.2)
        rows = ["factor,count,freq"] + [f"{xi},1,{float(fi)!r}" for xi, fi in zip(x, freq)]
        path = tmp_path / "series.csv"
        path.write_text("\n".join(rows) + "\n")
        assert main(["fit", str(path), "--model", "s"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["model"] == "s_complex"
        assert payload["sse"] < 1e-10
        assert payload["params"]["a"] == pytest.approx(0.3, rel=0.01)

    def test_too_few_points_is_numeric_failure(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("factor,count,freq\n1,1,0.5\n2,1,0.5\n")
        assert main(["fit", str(path), "--model", "s"]) == 3

    def test_short_row_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("factor,count,freq\n1,2\n")
        assert main(["fit", str(path), "--model", "s"]) == 2
        assert "error: line 2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "rows,line",
        [
            ("1,1,-0.5\n2,1,-0.2\n3,1,inf\n4,1,0.1\n5,1,0.1\n", 2),
            ("1,1,0.5\n2,1,nan\n3,1,0.5\n", 3),
            ("1,1,0.5\n2,1,0.2\n3,1,inf\n", 4),
        ],
        ids=["negative", "nan", "inf"],
    )
    def test_bad_frequency_is_data_error(self, tmp_path, capsys, rows, line):
        path = tmp_path / "neg.csv"
        path.write_text("factor,count,freq\n" + rows)
        assert main(["fit", str(path), "--model", "t"]) == 2
        err = capsys.readouterr().err
        assert f"error: line {line}: freq must be finite and nonnegative" in err

    @pytest.mark.parametrize("content", [None, b"factor,count,freq\n1,1,\xff\n"], ids=["missing", "not-utf8"])
    def test_unreadable_csv_is_data_error(self, tmp_path, capsys, content):
        path = tmp_path / "series.csv"
        if content is not None:
            path.write_bytes(content)
        assert main(["fit", str(path), "--model", "s"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_no_positive_frequency_is_numeric_failure(self, tmp_path, capsys):
        path = tmp_path / "zero.csv"
        path.write_text("factor,count,freq\n0,4,1.0\n1,0,0.0\n2,0,0.0\n3,0,0.0\n4,0,0.0\n")
        assert main(["fit", str(path), "--model", "s"]) == 3
        assert "no positive frequency" in capsys.readouterr().err

    def test_bug_propagates(self, tmp_path, monkeypatch):
        path = tmp_path / "series.csv"
        path.write_text("factor,count,freq\n1,1,0.4\n2,1,0.3\n3,1,0.2\n4,1,0.1\n")

        def broken(*args, **kwargs):
            raise ValueError("a bug")

        monkeypatch.setattr(cli, "fit", broken)
        with pytest.raises(ValueError, match="a bug"):
            main(["fit", str(path), "--model", "s"])


def _summary_and_censuses(path: Path, tmp_path: Path, capsys) -> dict:
    """summarize's stdout, and each census's distribution and per-unit dump, for one edge-list file."""
    assert main(["summarize", str(path)]) == 0
    outputs = {"summary": capsys.readouterr().out}
    for kind in ("s", "t"):
        units = tmp_path / f"{path.name}.{kind}.units.csv"
        assert main(["census", str(path), "--kind", kind, "--per-unit", str(units)]) == 0
        outputs[kind] = capsys.readouterr().out
        outputs[f"{kind} units"] = units.read_bytes()
    return outputs


def test_three_spellings_of_one_network_summarize_and_census_alike(synthetic_input, tmp_path, capsys):
    # the CRLF file is parsed line by line, the LF and the timestamped file in bulk
    lines = synthetic_input.read_text().splitlines()
    crlf = tmp_path / "crlf.txt"
    crlf.write_bytes("".join(f"{line}\r\n" for line in ["# one network, CRLF line ends", *lines]).encode())
    tab = tmp_path / "tab.txt"
    tab.write_text("".join(
        "\t".join([*line.split(), str(1462320000 + number)]) + "\n" for number, line in enumerate(lines, 1)
    ))
    expected = _summary_and_censuses(synthetic_input, tmp_path, capsys)
    assert json.loads(expected["summary"])["nodes"] == 600
    assert _summary_and_censuses(crlf, tmp_path, capsys) == expected
    assert _summary_and_censuses(tab, tmp_path, capsys) == expected


@pytest.mark.parametrize("log_base", ["10", "e"])
@pytest.mark.parametrize("model, kind", [("s", "s"), ("emg", "t")])
def test_fit_of_a_census_converges_at_each_log_base(synthetic_input, tmp_path, capsys, model, kind, log_base):
    series = tmp_path / f"{kind}.csv"
    assert main(["census", str(synthetic_input), "--kind", kind, "--out", str(series)]) == 0
    assert main(["fit", str(series), "--model", model, "--log-base", log_base]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["converged"]
    assert all(map(math.isfinite, result["params"].values()))


@pytest.mark.parametrize("command", ["fit", "calibrate"])
def test_out_file_holds_the_printed_json(command, tmp_path, capsys):
    # --out and stdout are the two branches of one JSON writer: same text, same final newline
    if command == "fit":
        series = tmp_path / "series.csv"
        series.write_text("factor,count,freq\n" + "".join(f"{x},1,{0.5**x!r}\n" for x in range(1, 12)))
        argv = ["fit", str(series), "--model", "t"]
    else:
        argv = ["calibrate", "--nodes", "300", "-m", "2", "--target-cc", "0.2",
                "--tolerance", "0.05", "--pilots", "2", "--seed", "4"]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "out.json"
    assert main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert printed.endswith("}\n")
    assert out.read_bytes() == printed.encode("utf-8")


@pytest.mark.parametrize("kind, unit_header", [("s", b"u,v,factor\r\n"), ("t", b"a,b,c,factor\r\n")])
def test_census_out_file_holds_the_printed_csv(synthetic_input, tmp_path, capsys, kind, unit_header):
    # stdout and --out are two targets of one CSV writer: same bytes, "\r\n" row ends
    argv = ["census", str(synthetic_input), "--kind", kind]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    out, per_unit = tmp_path / "out.csv", tmp_path / "units.csv"
    assert main([*argv, "--out", str(out), "--per-unit", str(per_unit)]) == 0
    assert capsys.readouterr().out == ""
    assert printed.startswith("factor,count,freq\r\n") and printed.endswith("\r\n")
    assert out.read_bytes() == printed.encode("utf-8")
    assert per_unit.read_bytes().startswith(unit_header)


class TestUsage:
    def test_unknown_command(self):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag(self):
        assert main(["census", "somefile"]) == 1

    def test_help_is_success(self):
        assert main(["--help"]) == 0

    @pytest.mark.parametrize(
        "command,target",
        [("generate", adjfactor.GrowthConfig), ("calibrate", adjfactor.calibrate_pt), ("fit", adjfactor.fit),
         ("experiment", ExperimentConfig)],
    )
    def test_every_option_names_a_parameter_of_its_target(self, command, target):
        # `_given` drops any option that names no parameter, so a misnamed dest would be ignored silently
        commands = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        dests = {a.dest for a in commands.choices[command]._actions if not isinstance(a, argparse._HelpAction)}
        assert dests - {"out"} <= set(inspect.signature(target).parameters)


def test_experiment_cli_smoke(synthetic_input, tmp_path, capsys):
    out = tmp_path / "run"
    code = main(
        ["experiment", str(synthetic_input), "--out", str(out), "--replicas", "1",
         "--seed", "5", "--pilots", "2"]
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["networks"][0]["status"] == "ok"
    assert (out / "table1.csv").exists() and (out / "table2.csv").exists()


class TestExperimentOptions:
    """Each option reaches `ExperimentConfig` under its own name; the run itself is not started."""

    @pytest.fixture
    def configs(self, monkeypatch):
        built = []

        def record(config):
            built.append(config)
            return {"networks": []}, 0

        monkeypatch.setattr(cli, "run_experiment", record)
        return built

    def test_no_optional_flag_leaves_every_default_to_the_library(self, configs, tmp_path):
        assert main(["experiment", "a.txt", "b.txt", "--out", str(tmp_path)]) == 0
        assert configs == [ExperimentConfig(datasets=["a.txt", "b.txt"], out_dir=tmp_path)]

    def test_every_flag_reaches_the_config(self, configs, tmp_path):
        argv = ["experiment", "a.txt", "--out", str(tmp_path), "--replicas", "3", "--seed", "5",
                "--tolerance", "0.05", "--pilots", "2", "--log-base", "e", "--reference-rule", "all",
                "--workers", "2"]
        assert main(argv) == 0
        assert configs == [
            ExperimentConfig(
                datasets=["a.txt"], out_dir=tmp_path, replicas=3, seed=5, calibration_tolerance=0.05,
                calibration_pilots=2, log_base=math.e, reference_rule="all", workers=2,
            )
        ]

    @pytest.mark.parametrize("flag", [["--log-base", "2"], ["--reference-rule", "median"]])
    def test_unknown_choice_is_a_usage_error(self, configs, tmp_path, flag):
        assert main(["experiment", "a.txt", "--out", str(tmp_path), *flag]) == 1
        assert configs == []


def test_experiment_runs_with_scipy_blocked(synthetic_input, experiment_run, tmp_path):
    # the determinism fixture's run, in a fresh interpreter that cannot import scipy
    out = tmp_path / "run"
    code = f"""
import sys
sys.modules["scipy"] = None
from adjfactor import cli
sys.exit(cli.main(["experiment", {str(synthetic_input)!r}, "--out", {str(out)!r}, "--replicas", "3",
                   "--seed", "5", "--pilots", "3", "--tolerance", "0.02"]))
"""
    env = dict(os.environ, PYTHONPATH=str(Path(adjfactor.__file__).resolve().parent.parent))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    _, shared_out, _ = experiment_run
    assert (out / "report.json").read_bytes() == (shared_out / "report.json").read_bytes()
