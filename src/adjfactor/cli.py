"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 data error (unreadable or malformed
input, an invalid parameter value, an unwritable output), 3 numeric failure.
Any other exception is a bug and propagates.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

from .census import census, read_distribution_csv, to_distribution, write_census_csv, write_distribution_csv
from .graph import DataError, load_edge_list, write_edge_list
from .growth import CalibrationError, ConfigError, GrowthConfig, calibrate_pt, generate_pa_tf
from .models import EMG, REFERENCE_RULES, S_COMPLEX, FitError, fit
from .pipeline import DATA_ERROR, NUMERIC_ERROR, ExperimentConfig, _summary, _write_json, run_experiment

USAGE_ERROR = 1

_MODEL_ALIASES = {"s": S_COMPLEX, "t": EMG, S_COMPLEX: S_COMPLEX, EMG: EMG}


def _log_base(text: str) -> float:
    return 10.0 if text == "10" else math.e


def _write_output(payload: dict, out: str | None) -> None:
    """Write payload as JSON to the file out, or the same text to stdout."""
    if out:
        _write_json(Path(out), payload)
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))


def cmd_summarize(args: argparse.Namespace) -> int:
    graph, _ = load_edge_list(args.path)
    if graph.node_count == 0:
        payload = {"nodes": 0, "edges": 0, "error": "empty graph"}
        print(json.dumps(payload, sort_keys=True))
        return DATA_ERROR
    summary = _summary(graph)
    if args.format == "csv":
        print("nodes,edges,avg_cc")
        print(f"{summary['nodes']},{summary['edges']},{summary['avg_cc']!r}")
    else:
        print(json.dumps(summary, sort_keys=True))
    return 0


def cmd_census(args: argparse.Namespace) -> int:
    graph, _ = load_edge_list(args.path)
    result = census(graph, args.kind)
    series = to_distribution(result)
    if args.per_unit:
        write_census_csv(result, args.per_unit)
    if args.out:
        write_distribution_csv(series, args.out)
    else:
        write_distribution_csv(series, sys.stdout)
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    n0 = args.n0 if args.n0 is not None else max(args.edges_per_node, 3)
    config = GrowthConfig(
        n=args.nodes, n0=n0, m=args.edges_per_node, p_t=args.pt, seed=args.seed
    )
    graph = generate_pa_tf(config)
    write_edge_list(graph, args.out)
    meta = config.metadata()
    meta["generated_edges"] = graph.edge_count
    _write_json(Path(str(args.out) + ".meta.json"), meta)
    print(json.dumps(_summary(graph), sort_keys=True))
    return 0


def cmd_calibrate(args: argparse.Namespace) -> int:
    result = calibrate_pt(
        args.nodes,
        args.edges_per_node,
        args.target_cc,
        tolerance=args.tolerance,
        pilots=args.pilots,
        seed=args.seed,
    )
    _write_output(asdict(result), args.out)
    return 0


def cmd_fit(args: argparse.Namespace) -> int:
    series = read_distribution_csv(args.series)
    result = fit(_MODEL_ALIASES[args.model], series, log_base=_log_base(args.log_base))
    _write_output(asdict(result), args.out)
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    config = ExperimentConfig(
        datasets=args.paths,
        out_dir=Path(args.out),
        replicas=args.replicas,
        seed=args.seed,
        calibration_tolerance=args.tolerance,
        calibration_pilots=args.pilots,
        log_base=_log_base(args.log_base),
        reference_rule=args.reference_rule,
        workers=args.workers,
    )
    report, code = run_experiment(config)
    failed = [n["name"] for n in report["networks"] if n["status"] != "ok"]
    print(f"report written to {config.out_dir / 'report.json'}")
    if failed:
        print(f"failed networks: {', '.join(failed)}", file=sys.stderr)
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adjfactor",
        description="Adjacency-factor census of S/T simplicial complexes, "
        "matched network growth, and distribution fitting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("summarize", help="node/edge counts and average clustering coefficient")
    p.add_argument("path")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_summarize)

    p = sub.add_parser("census", help="adjacency-factor distribution of a network")
    p.add_argument("path")
    p.add_argument("--kind", choices=("s", "t"), required=True)
    p.add_argument("--out", help="distribution CSV path (default: stdout)")
    p.add_argument("--per-unit", help="also dump one row per edge/triangle to this CSV")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("generate", help="grow a PA-TF network and write its edge list")
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("-m", "--edges-per-node", type=int, required=True)
    p.add_argument("--pt", type=float, required=True, help="triad-formation probability")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n0", type=int, default=None, help="seed-ring size (default max(m, 3))")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("calibrate", help="find p_t matching a target clustering coefficient")
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("-m", "--edges-per-node", type=int, required=True)
    p.add_argument("--target-cc", type=float, required=True)
    p.add_argument("--tolerance", type=float, default=0.02)
    p.add_argument("--pilots", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("fit", help="fit a model to a distribution CSV")
    p.add_argument("series", help='CSV with header "factor,count,freq"')
    p.add_argument("--model", choices=sorted(_MODEL_ALIASES), required=True)
    p.add_argument("--log-base", choices=("10", "e"), default="10")
    p.add_argument("--out")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("experiment", help="full real-vs-grown comparison pipeline")
    p.add_argument("paths", nargs="+", help="edge-list files of the real networks")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--replicas", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tolerance", type=float, default=0.02, help="calibration tolerance")
    p.add_argument("--pilots", type=int, default=5, help="pilot networks per calibration probe")
    p.add_argument("--log-base", choices=("10", "e"), default="10")
    p.add_argument("--reference-rule", choices=REFERENCE_RULES, default="upper-half")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else USAGE_ERROR
    try:
        return args.func(args)
    except (DataError, ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR
    except (FitError, CalibrationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return NUMERIC_ERROR


if __name__ == "__main__":
    sys.exit(main())
