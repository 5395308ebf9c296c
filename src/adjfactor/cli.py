"""Command-line interface: a thin shell over the library.

The options of `experiment`, `generate`, `calibrate` and `fit` are named
after the library's parameters, and only those given are passed on, so the
defaults and the checks are those of `ExperimentConfig`, `GrowthConfig`,
`calibrate_pt` and `fit`. Exit codes: 0 success, 1 usage error, 2 data error
(unreadable or malformed input, an invalid parameter value, an unwritable
output), 3 numeric failure; each failure is reported on stderr. Any other
exception is a bug and propagates.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import sys
from dataclasses import asdict

from .census import census, read_distribution_csv, to_distribution, write_census_csv, write_distribution_csv
from .graph import DataError, load_edge_list, write_edge_list
from .growth import CalibrationError, ConfigError, GrowthConfig, calibrate_pt, generate_pa_tf
from .models import REFERENCE_RULES, FitError, fit
from .pipeline import DATA_ERROR, MODEL_BY_KIND, NUMERIC_ERROR, ExperimentConfig, _summary, _write_json, run_experiment

USAGE_ERROR = 1

_MODEL_ALIASES = {**MODEL_BY_KIND, **{model: model for model in MODEL_BY_KIND.values()}}
_LOG_BASES = {"10": 10.0, "e": math.e}


def _given(args: argparse.Namespace, target) -> dict:
    """The options the user gave that name a parameter of target; target's own defaults supply the rest."""
    names = inspect.signature(target).parameters
    given = {name: value for name, value in vars(args).items() if name in names and value is not None}
    if "log_base" in given:
        given["log_base"] = _LOG_BASES[given["log_base"]]
    return given


def cmd_summarize(args: argparse.Namespace) -> int:
    summary = _summary(load_edge_list(args.path)[0])
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
    write_distribution_csv(series, args.out or sys.stdout)
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    config = GrowthConfig(**_given(args, GrowthConfig))
    graph = generate_pa_tf(config)
    write_edge_list(graph, args.out)
    meta = config.metadata()
    meta["generated_edges"] = graph.edge_count
    _write_json(f"{args.out}.meta.json", meta)
    print(json.dumps(_summary(graph), sort_keys=True))
    return 0


def cmd_calibrate(args: argparse.Namespace) -> int:
    result = calibrate_pt(**_given(args, calibrate_pt))
    _write_json(args.out or sys.stdout, asdict(result))
    return 0


def cmd_fit(args: argparse.Namespace) -> int:
    args.model = _MODEL_ALIASES[args.model]
    args.series = read_distribution_csv(args.series)
    result = fit(**_given(args, fit))
    _write_json(args.out or sys.stdout, asdict(result))
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    config = ExperimentConfig(**_given(args, ExperimentConfig))
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
    p.add_argument("--nodes", dest="n", type=int, required=True)
    p.add_argument("-m", "--edges-per-node", dest="m", type=int, required=True)
    p.add_argument("--pt", dest="p_t", type=float, required=True, help="triad-formation probability")
    p.add_argument("--seed", type=int)
    p.add_argument("--n0", type=int, help="seed-ring size (default and minimum max(m, 3))")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("calibrate", help="find p_t matching a target clustering coefficient")
    p.add_argument("--nodes", dest="n", type=int, required=True)
    p.add_argument("-m", "--edges-per-node", dest="m", type=int, required=True)
    p.add_argument("--target-cc", type=float, required=True)
    p.add_argument("--tolerance", type=float)
    p.add_argument("--pilots", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("fit", help="fit a model to a distribution CSV")
    p.add_argument("series", help='CSV with header "factor,count,freq"')
    p.add_argument("--model", choices=sorted(_MODEL_ALIASES), required=True)
    p.add_argument("--log-base", choices=_LOG_BASES)
    p.add_argument("--out")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("experiment", help="full real-vs-grown comparison pipeline")
    p.add_argument("datasets", nargs="+", metavar="paths", help="edge-list files of the real networks")
    p.add_argument("--out", dest="out_dir", required=True, help="output directory")
    p.add_argument("--replicas", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--tolerance", dest="calibration_tolerance", type=float, help="calibration tolerance")
    p.add_argument("--pilots", dest="calibration_pilots", type=int, help="pilot networks per calibration probe")
    p.add_argument("--log-base", choices=_LOG_BASES)
    p.add_argument("--reference-rule", choices=REFERENCE_RULES)
    p.add_argument("--workers", type=int)
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
