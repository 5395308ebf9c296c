"""End-to-end experiment: ingest, census, matched growth, fits, and report.

For every input network the pipeline measures the S/T adjacency-factor
distributions, grows size- and clustering-matched replicas, fits both models
to the real and replica distributions, and compares best-fit parameters with
a one-sample t-test. Everything is derived from one master seed, and the
report is byte-identical across runs, output directories, and worker counts.

With `workers` > 1, a process pool runs the real network's census and fits
while the main process calibrates p_t, then grows, censuses and fits the
replicas. With one worker every stage runs inline, in stage order. A failed
network reports its earliest failing stage, whatever ran first: a real-fit
failure beats a calibration failure, and no later stage leaves a report key
or a file. Unreadable, unparsable or empty inputs are data failures (exit 2),
unfittable series and unreachable targets numeric ones (exit 3); any other
exception is a bug and propagates.
"""

from __future__ import annotations

import csv
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .census import census, to_distribution, write_distribution_csv
from .graph import DataError, Graph, load_edge_list, average_clustering_coefficient, write_edge_list
from .growth import (
    CalibrationError,
    ConfigError,
    GrowthConfig,
    calibrate_pt,
    derive_growth_config,
    derive_seed,
    grow_with_clustering,
)
from .models import (
    EMG,
    PARAM_NAMES,
    S_COMPLEX,
    FitError,
    FitResult,
    fit,
    model_function,
    reference_constant,
)
from .stats import one_sample_t_test

MODEL_BY_KIND = {"s": S_COMPLEX, "t": EMG}


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
        if self.replicas < 1:
            raise ConfigError("replicas must be >= 1")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.calibration_tolerance <= 0:
            raise ConfigError("calibration_tolerance must be positive")
        if self.calibration_pilots < 1:
            raise ConfigError("calibration_pilots must be >= 1")
        self.out_dir = Path(self.out_dir)

    def echo(self) -> dict:
        """Config as recorded in the report: semantics only, no execution details."""
        return {
            "datasets": [str(p) for p in self.datasets],
            "replicas": self.replicas,
            "seed": self.seed,
            "calibration_tolerance": self.calibration_tolerance,
            "calibration_pilots": self.calibration_pilots,
            "log_base": self.log_base,
            "reference_rule": self.reference_rule,
        }


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _write_curve_csv(path: Path, x: np.ndarray, values: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["x", "model"])
        for xi, vi in zip(x, values):
            writer.writerow([repr(float(xi)), repr(float(vi))])


def _fit_both_kinds(graph: Graph, prefix: str, out_dir: Path, log_base: float) -> dict:
    """Census, distribution CSVs, fits, and curve CSVs for one network."""
    results: dict[str, dict] = {}
    for kind in ("s", "t"):
        series = to_distribution(census(graph, kind))
        csv_name = f"{prefix}_{kind}_distribution.csv"
        write_distribution_csv(series, out_dir / csv_name)
        model = MODEL_BY_KIND[kind]
        result = fit(model, series, log_base=log_base)
        fit_name = f"{prefix}_{kind}_fit.json"
        _write_json(out_dir / fit_name, asdict(result))
        x, _ = series.restrict(result.support_min)
        curve_name = f"{prefix}_{kind}_model_curve.csv"
        _write_curve_csv(
            out_dir / curve_name, x, model_function(model, result.params, log_base=log_base)(x)
        )
        results[kind] = {
            "series": series,
            "fit": result,
            "distribution_csv": csv_name,
            "fit_json": fit_name,
            "curve_csv": curve_name,
        }
    return results


def _replica_task(args: tuple) -> dict:
    """Generate one replica, census and fit it, and persist its artifacts.

    Top-level so it can run in a worker process; output depends only on args.
    """
    config_dict, replica_index, out_dir_text, log_base = args
    out_dir = Path(out_dir_text)
    config = GrowthConfig(**config_dict)
    graph, avg_cc = grow_with_clustering(config)
    prefix = f"replica_{replica_index:02d}"
    write_edge_list(graph, out_dir / f"{prefix}.edges")
    fitted = _fit_both_kinds(graph, prefix, out_dir, log_base)
    entry = {
        "replica": replica_index,
        "seed": config.seed,
        "edges_file": f"{prefix}.edges",
        "nodes": graph.node_count,
        "edges": graph.edge_count,
        "avg_cc": avg_cc,
    }
    for kind in ("s", "t"):
        entry[kind] = {
            "fit": asdict(fitted[kind]["fit"]),
            "distribution_csv": fitted[kind]["distribution_csv"],
            "fit_json": fitted[kind]["fit_json"],
        }
    return entry


def _aggregate_model(
    real_fit: FitResult,
    real_series,
    replica_entries: list[dict],
    kind: str,
    reference_rule: str,
) -> dict:
    """Replica averages, reference baseline, and per-parameter t-tests."""
    replica_fits = [entry[kind]["fit"] for entry in replica_entries]
    param_names = list(real_fit.params.keys())
    grown_mean_params = {
        name: float(np.mean([rf["params"][name] for rf in replica_fits])) for name in param_names
    }
    grown_mean_mnd = float(np.mean([rf["mnd"] for rf in replica_fits]))
    x, observed = real_series.restrict(real_fit.support_min)
    constant, ref_mnd = reference_constant(x, observed, rule=reference_rule)
    t_tests = {}
    for name in param_names:
        samples = [rf["params"][name] for rf in replica_fits]
        if len(samples) >= 2:
            t_tests[name] = one_sample_t_test(samples, real_fit.params[name]).to_dict()
        else:
            t_tests[name] = None
    return {
        "real": asdict(real_fit),
        "replicas": [rf for rf in replica_fits],
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
    executor: ProcessPoolExecutor | None,
) -> tuple[dict, str | None]:
    """Run every stage for one network. Returns (report entry, failure kind)."""
    entry: dict = {"name": name, "input": str(dataset), "status": "ok"}
    net_dir = config.out_dir / name
    net_dir.mkdir(parents=True, exist_ok=True)
    stage = "ingest"
    try:
        graph, ingest = load_edge_list(dataset)
        entry["ingest"] = asdict(ingest)
        _write_json(net_dir / "ingest.json", asdict(ingest))

        stage = "summary"
        avg_cc = average_clustering_coefficient(graph)
        entry["summary"] = {
            "nodes": graph.node_count,
            "edges": graph.edge_count,
            "avg_cc": avg_cc,
        }

        stage = "census_and_fit_real"
        if executor is None:
            real = _fit_both_kinds(graph, "real", net_dir, config.log_base)
        else:
            real_job = executor.submit(_fit_both_kinds, graph, "real", net_dir, config.log_base)

        stage = "calibration"
        try:
            base = derive_growth_config(graph.node_count, graph.edge_count)
            calibration = calibrate_pt(
                base.n,
                base.m,
                avg_cc,
                tolerance=config.calibration_tolerance,
                pilots=config.calibration_pilots,
                seed=derive_seed(config.seed, net_index, 0),
            )
        finally:
            if executor is not None:
                # the earlier stage's failure wins, as if it had run first:
                # raised here, it replaces any exception calibration raised
                stage = "census_and_fit_real"
                real = real_job.result()
                stage = "calibration"
        grown_config = replace(base, p_t=calibration.p_t)
        entry["growth"] = {
            "config": grown_config.metadata(),
            "calibration": asdict(calibration),
        }
        _write_json(net_dir / "growth_config.json", entry["growth"])

        stage = "replicas"
        tasks = [
            (
                asdict(replace(grown_config, seed=derive_seed(config.seed, net_index, 1 + r))),
                r,
                str(net_dir),
                config.log_base,
            )
            for r in range(config.replicas)
        ]
        if executor is None:
            replica_entries = [_replica_task(task) for task in tasks]
        else:
            replica_entries = list(executor.map(_replica_task, tasks))
        entry["replicas"] = replica_entries

        stage = "aggregate"
        entry["models"] = {
            MODEL_BY_KIND[kind]: _aggregate_model(
                real[kind]["fit"],
                real[kind]["series"],
                replica_entries,
                kind,
                config.reference_rule,
            )
            for kind in ("s", "t")
        }
        return entry, None
    except (FitError, CalibrationError) as exc:
        entry.update(status="failed", failed_stage=stage, error=str(exc))
        return entry, "numeric"
    except DataError as exc:
        entry.update(status="failed", failed_stage=stage, error=str(exc))
        return entry, "data"


def _slash(*values: float) -> str:
    return " / ".join(f"{v:.2f}" for v in values)


def _write_tables(report: dict, out_dir: Path) -> None:
    with open(out_dir / "table1.csv", "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["network", "nodes", "edges", "avg_cc"])
        for entry in report["networks"]:
            if "summary" not in entry:
                continue
            s = entry["summary"]
            writer.writerow([entry["name"], s["nodes"], s["edges"], f"{s['avg_cc']:.4f}"])

    header = ["network"]
    for model, names in PARAM_NAMES.items():
        header += [f"{model}_{n} (real / grown)" for n in names]
        header += [f"{model}_mnd (real / grown / ref)"]
    with open(out_dir / "table2.csv", "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
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
            writer.writerow(row)


def run_experiment(config: ExperimentConfig) -> tuple[dict, int]:
    """Run the full experiment; writes report.json, table1.csv, table2.csv.

    Returns the report and an exit code: 0 when every network completed,
    3 when any failure was numeric, 2 for data failures.
    """
    config.out_dir.mkdir(parents=True, exist_ok=True)

    names: list[str] = []
    for index, dataset in enumerate(config.datasets):
        name = Path(dataset).stem or f"network_{index}"
        while name in names:
            name = f"{name}_{index}"
        names.append(name)

    executor = ProcessPoolExecutor(max_workers=config.workers) if config.workers > 1 else None
    failure_kinds: list[str] = []
    networks = []
    try:
        for index, (dataset, name) in enumerate(zip(config.datasets, names)):
            entry, failure = _process_network(index, dataset, name, config, executor)
            networks.append(entry)
            if failure is not None:
                failure_kinds.append(failure)
    finally:
        if executor is not None:
            executor.shutdown()

    report = {"config": config.echo(), "networks": networks}
    _write_json(config.out_dir / "report.json", report)
    _write_tables(report, config.out_dir)

    if "numeric" in failure_kinds:
        return report, 3
    if failure_kinds:
        return report, 2
    return report, 0
