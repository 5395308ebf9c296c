"""End-to-end experiment: ingest, census, matched growth, fits, and report.

For every input network the pipeline measures the S/T adjacency-factor
distributions, grows size- and clustering-matched replicas, fits both models
to the real and replica distributions, and compares best-fit parameters with
a one-sample t-test. Everything is derived from one master seed, and the
report is byte-identical across runs, output directories, and worker counts.

One path serves every worker count: calibration and each replica are executor
tasks. A `Graph` raises TypeError when pickled, so a process pool
(`workers` > 1) refuses one; at one worker each task runs when submitted and
pickles nothing. The pool calibrates p_t while the main process censuses and
fits the real network on the triangle pass its average CC already ran. Results
are read in stage order, so every task runs at every worker count, and a
failed network reports its earliest failing stage: a real-fit failure beats a
calibration failure, replica r beats replica r + 1, and no later stage leaves
a report key or a file. Unreadable, unparsable or empty inputs are data
failures (exit 2), unfittable series and unreachable targets numeric ones
(exit 3); any other exception is a bug and propagates.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import Executor, Future, ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import IO

import numpy as np

from .census import _write_csv, census, to_distribution, write_distribution_csv
from .graph import DataError, Graph, _open_text, load_edge_list, average_clustering_coefficient, write_edge_list
from .growth import (
    CalibrationError,
    CalibrationResult,
    ConfigError,
    GrowthConfig,
    _check_count,
    calibrate_pt,
    derive_growth_config,
    derive_seed,
    generate_pa_tf,
)
from .models import (
    EMG,
    PARAM_NAMES,
    REFERENCE_RULES,
    S_COMPLEX,
    FitError,
    fit,
    model_function,
    reference_constant,
    _valid_log_base,
)
from .stats import one_sample_t_test

MODEL_BY_KIND = {"s": S_COMPLEX, "t": EMG}
DATA_ERROR = 2
NUMERIC_ERROR = 3


@dataclass
class ExperimentConfig:
    datasets: list[str]
    out_dir: Path
    replicas: int = 10
    seed: int = 0
    calibration_tolerance: float = 0.02
    calibration_pilots: int = 5
    log_base: float = 10.0
    reference_rule: str = "upper-half"
    workers: int = 1

    def __post_init__(self):
        if isinstance(self.datasets, (str, bytes, os.PathLike)) or not self.datasets:
            raise ConfigError(f"datasets must be a non-empty list of paths, got {self.datasets!r}")
        for dataset in self.datasets:
            if not isinstance(dataset, (str, os.PathLike)):
                raise ConfigError(f"datasets must hold str or os.PathLike paths, got {dataset!r}")
        if not isinstance(self.out_dir, (str, os.PathLike)):
            raise ConfigError(f"out_dir must be a str or os.PathLike path, got {self.out_dir!r}")
        _check_count("replicas", self.replicas, 1)
        _check_count("seed", self.seed, 0)
        _check_count("workers", self.workers, 1)
        tolerance = self.calibration_tolerance
        if isinstance(tolerance, bool) or not (math.isfinite(tolerance) and tolerance > 0):
            raise ConfigError(f"calibration_tolerance must be finite and > 0, got {tolerance!r}")
        _check_count("calibration_pilots", self.calibration_pilots, 1)
        if self.reference_rule not in REFERENCE_RULES:
            raise ConfigError(f"reference_rule must be one of {REFERENCE_RULES}, got {self.reference_rule!r}")
        if not _valid_log_base(self.log_base):
            raise ConfigError(f"log_base must be a finite number > 0 and != 1, got {self.log_base!r}")
        self.out_dir = Path(self.out_dir)

    def echo(self) -> dict:
        """Config as recorded in the report: semantics only, no execution details."""
        echo = {
            f.name: getattr(self, f.name) for f in fields(self) if f.name not in ("out_dir", "workers")
        }
        echo["datasets"] = [str(p) for p in self.datasets]
        return echo


class _Inline(Executor):
    """Runs each task in this process when submitted; its `Future` holds the result or the exception."""

    def submit(self, fn, /, *args, **kwargs):
        future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as exc:
            future.set_exception(exc)
        return future


def _summary(graph: Graph) -> dict:
    return {
        "nodes": graph.node_count,
        "edges": graph.edge_count,
        "avg_cc": average_clustering_coefficient(graph),
    }


def _write_json(target: str | bytes | os.PathLike | IO[str], payload: dict) -> None:
    """Write payload as indented, key-sorted JSON and a final newline to a path
    or an open text handle (see `graph._open_text`)."""
    with _open_text(target, "w") as handle:
        handle.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _fit_both_kinds(graph: Graph, prefix: str, out_dir: Path, log_base: float) -> dict:
    """Census, distribution CSV, fit and curve CSV of each kind for one network.

    Returns {kind: (series, record)}; the record holds the fit and the file
    names as the report lists them.
    """
    fitted = {}
    for kind in ("s", "t"):
        series = to_distribution(census(graph, kind))
        files = {
            "distribution_csv": f"{prefix}_{kind}_distribution.csv",
            "fit_json": f"{prefix}_{kind}_fit.json",
        }
        write_distribution_csv(series, out_dir / files["distribution_csv"])
        model = MODEL_BY_KIND[kind]
        result = asdict(fit(model, series, log_base=log_base))
        _write_json(out_dir / files["fit_json"], result)
        x, _ = series.restrict(result["support_min"])
        curve = model_function(model, result["params"], log_base=log_base)(x)
        rows = ([repr(float(xi)), repr(float(vi))] for xi, vi in zip(x, curve))
        _write_csv(out_dir / f"{prefix}_{kind}_model_curve.csv", ["x", "model"], rows)
        fitted[kind] = series, {"fit": result, **files}
    return fitted


def _calibrate(base: GrowthConfig, target_cc: float, config: ExperimentConfig, seed: int) -> CalibrationResult:
    """Calibrate p_t for one network: the pool task, as a traced `calibrate_pt` does not pickle."""
    tolerance, pilots = config.calibration_tolerance, config.calibration_pilots
    return calibrate_pt(base.n, base.m, target_cc, tolerance=tolerance, pilots=pilots, seed=seed)


def _replica_task(config: GrowthConfig, index: int, out_dir: Path, log_base: float) -> dict:
    """Generate one replica, census and fit it, and persist its artifacts.

    Top-level so it can run in a worker process; output depends only on the arguments.
    """
    graph = generate_pa_tf(config)
    prefix = f"replica_{index:02d}"
    write_edge_list(graph, out_dir / f"{prefix}.edges")
    entry = {
        "replica": index,
        "seed": config.seed,
        "edges_file": f"{prefix}.edges",
        **_summary(graph),
    }
    for kind, (_, record) in _fit_both_kinds(graph, prefix, out_dir, log_base).items():
        entry[kind] = record
    return entry


def _aggregate_model(
    real_fit: dict,
    real_series,
    replica_entries: list[dict],
    kind: str,
    reference_rule: str,
) -> dict:
    """Replica averages, reference baseline, and per-parameter t-tests."""
    replica_fits = [entry[kind]["fit"] for entry in replica_entries]
    param_names = list(real_fit["params"].keys())
    grown_mean_params = {
        name: float(np.mean([rf["params"][name] for rf in replica_fits])) for name in param_names
    }
    grown_mean_mnd = float(np.mean([rf["mnd"] for rf in replica_fits]))
    x, observed = real_series.restrict(real_fit["support_min"])
    constant, ref_mnd = reference_constant(x, observed, rule=reference_rule)
    t_tests = {}
    for name in param_names:
        samples = [rf["params"][name] for rf in replica_fits]
        if len(samples) >= 2:
            t_tests[name] = one_sample_t_test(samples, real_fit["params"][name]).to_dict()
        else:
            t_tests[name] = None
    return {
        "real": real_fit,
        "replicas": replica_fits,
        "grown_mean_params": grown_mean_params,
        "grown_mean_mnd": grown_mean_mnd,
        "reference": {"constant": constant, "mnd": ref_mnd},
        "t_tests": t_tests,
    }


def _process_network(
    net_index: int,
    dataset: str,
    name: str,
    config: ExperimentConfig,
    executor: Executor,
) -> tuple[dict, int]:
    """Run every stage for one network. Returns (report entry, exit code: 0, 2 or 3)."""
    entry: dict = {"name": name, "input": str(dataset), "status": "ok"}
    net_dir = config.out_dir / name
    net_dir.mkdir(parents=True, exist_ok=True)
    stage = "ingest"
    try:
        graph, ingest = load_edge_list(dataset)
        entry["ingest"] = asdict(ingest)
        _write_json(net_dir / "ingest.json", asdict(ingest))

        stage = "summary"
        entry["summary"] = _summary(graph)

        base = derive_growth_config(graph.node_count, graph.edge_count)
        seed = derive_seed(config.seed, net_index, 0)
        calibration_job = executor.submit(_calibrate, base, entry["summary"]["avg_cc"], config, seed)

        stage = "census_and_fit_real"
        real = _fit_both_kinds(graph, "real", net_dir, config.log_base)

        stage = "calibration"
        calibration = calibration_job.result()
        grown_config = replace(base, p_t=calibration.p_t)
        entry["growth"] = {
            "config": grown_config.metadata(),
            "calibration": asdict(calibration),
        }
        _write_json(net_dir / "growth_config.json", entry["growth"])

        stage = "replicas"
        configs = [
            replace(grown_config, seed=derive_seed(config.seed, net_index, 1 + r))
            for r in range(config.replicas)
        ]
        jobs = [executor.submit(_replica_task, c, r, net_dir, config.log_base) for r, c in enumerate(configs)]
        replica_entries = [job.result() for job in jobs]
        entry["replicas"] = replica_entries

        stage = "aggregate"
        entry["models"] = {
            MODEL_BY_KIND[kind]: _aggregate_model(
                record["fit"], series, replica_entries, kind, config.reference_rule
            )
            for kind, (series, record) in real.items()
        }
        return entry, 0
    except (DataError, FitError, CalibrationError) as exc:
        entry.update(status="failed", failed_stage=stage, error=str(exc))
        return entry, DATA_ERROR if isinstance(exc, DataError) else NUMERIC_ERROR


def _slash(*values: float) -> str:
    return " / ".join(f"{v:.2f}" for v in values)


def _write_tables(report: dict, out_dir: Path) -> None:
    table1 = []
    for entry in report["networks"]:
        if "summary" in entry:
            s = entry["summary"]
            table1.append([entry["name"], s["nodes"], s["edges"], f"{s['avg_cc']:.4f}"])
    _write_csv(out_dir / "table1.csv", ["network", "nodes", "edges", "avg_cc"], table1)

    header = ["network"]
    for model, names in PARAM_NAMES.items():
        header += [f"{model}_{n} (real / grown)" for n in names]
        header += [f"{model}_mnd (real / grown / ref)"]
    table2 = []
    for entry in report["networks"]:
        if entry["status"] != "ok":
            continue
        row = [entry["name"]]
        for model, names in PARAM_NAMES.items():
            section = entry["models"][model]
            for n in names:
                row.append(_slash(section["real"]["params"][n], section["grown_mean_params"][n]))
            row.append(
                _slash(
                    section["real"]["mnd"],
                    section["grown_mean_mnd"],
                    section["reference"]["mnd"],
                )
            )
        table2.append(row)
    _write_csv(out_dir / "table2.csv", header, table2)


def run_experiment(config: ExperimentConfig) -> tuple[dict, int]:
    """Run the full experiment; writes report.json, table1.csv, table2.csv.

    Returns the report and an exit code: 0 when every network completed,
    3 when any failure was numeric, 2 for data failures.
    """
    config.out_dir.mkdir(parents=True, exist_ok=True)

    names: list[str] = []
    for index, dataset in enumerate(config.datasets):
        name = Path(dataset).stem
        if name in ("", ".", "..", "report.json", "table1.csv", "table2.csv"):  # outside out_dir or over its files
            name = f"network_{index}"
        while name in names:
            name = f"{name}_{index}"
        names.append(name)

    code = 0
    networks = []
    workers = min(config.workers, config.replicas)  # no stage has more tasks in flight; a forked pool starts them all
    with ProcessPoolExecutor(max_workers=workers) if config.workers > 1 else _Inline() as executor:
        for index, (dataset, name) in enumerate(zip(config.datasets, names)):
            entry, failure = _process_network(index, dataset, name, config, executor)
            networks.append(entry)
            code = max(code, failure)

    report = {"config": config.echo(), "networks": networks}
    _write_json(config.out_dir / "report.json", report)
    _write_tables(report, config.out_dir)
    return report, code
