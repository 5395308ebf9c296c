"""Set-up probe and timed process of the benchmark.

run.py starts this file in fresh interpreters, in two modes:

    python3 perfbench/worker.py setup --workload W --size full --work DIR
    python3 perfbench/worker.py run --workload W --size full --seed N --seconds S --trace 0 --work DIR

`setup` imports adjfactor and draws or verifies the workload's inputs; run.py
times it. `run` does no input set-up, so its peak RSS is the program's own.
It repeats the workload until the time is spent, checks every iteration's
outputs against the networkx oracles in manifest.json, and prints one JSON
object as its last line. Both modes start with an untimed warm-up iteration
on a smoke-size input. Untraced, it takes the input variants in turn,
starting at variant seed mod variants; traced, it alternates untraced and
traced iterations of variant seed mod variants.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import adjfactor  # noqa: E402
from adjfactor import cli  # noqa: E402

from inputs import SIZES, ensure_inputs, input_path, load_manifest, sha256_file  # noqa: E402
from spans import LAYERS, ROOT_SPAN, Tracer, layer_metrics  # noqa: E402


def _cpu_seconds() -> float:
    """User+sys CPU of this process and of its reaped children (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _children_cpu_seconds() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return children.ru_utime + children.ru_stime


def _peak_rss_mb() -> float:
    """Larger of this process's and its largest reaped child's peak RSS."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


# -- workloads ---------------------------------------------------------------


def run_experiment(params: dict, case: dict, path: Path, out: Path) -> dict:
    argv = [
        "experiment", str(path), "--out", str(out), "--seed", str(case["seed"]),
        "--replicas", str(params["replicas"]), "--pilots", str(params["pilots"]),
        "--tolerance", str(params["tolerance"]), "--workers", str(params["workers"]),
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        return {"code": cli.main(argv)}


def check_experiment(params: dict, case: dict, result: dict, out: Path) -> list[str]:
    failures = []
    if result["code"] != 0:
        failures.append(f"exit code {result['code']}")
    report_path = out / "report.json"
    if not report_path.exists():
        return failures + ["no report.json"]
    report = json.loads(report_path.read_text(encoding="utf-8"))
    result["report_sha256"] = sha256_file(report_path)
    for network in report["networks"]:
        if network["status"] != "ok":
            failures.append(f"network {network['name']} status {network['status']}")
            continue
        achieved = network["growth"]["calibration"]["achieved_cc"]
        if abs(achieved - case["avg_cc"]) > params["tolerance"]:
            failures.append(f"calibrated CC {achieved} not within tolerance of input CC {case['avg_cc']}")
    return failures


def run_profile(params: dict, case: dict, path: Path, out: Path) -> dict:
    """The summarize/census/fit path on one network, through the library API."""
    graph, _ = adjfactor.load_edge_list(path)
    result = {
        "nodes": graph.node_count,
        "edges": graph.edge_count,
        "avg_cc": adjfactor.average_clustering_coefficient(graph),
    }
    for kind, model in (("s", adjfactor.S_COMPLEX), ("t", adjfactor.EMG)):
        factors = adjfactor.census(graph, kind)
        result[f"{kind}_units"] = len(factors)
        result[f"{kind}_factor_sum"] = int(factors.factors.sum())
        series = adjfactor.to_distribution(factors)
        del factors
        adjfactor.write_distribution_csv(series, out / f"{kind}_distribution.csv")
        fitted = adjfactor.fit(model, series)
        result[f"{kind}_fit"] = [*fitted.params.values(), fitted.mnd]
    return result


def check_profile(params: dict, case: dict, result: dict, out: Path) -> list[str]:
    failures = []
    for key in ("nodes", "edges"):
        if result[key] != case[key]:
            failures.append(f"{key} {result[key]} != networkx {case[key]}")
    if result["t_units"] != case["triangles"]:
        failures.append(f"triangles {result['t_units']} != networkx {case['triangles']}")
    if result["s_factor_sum"] != 3 * case["triangles"]:
        failures.append(f"sum of edge factors {result['s_factor_sum']} != 3 x {case['triangles']}")
    if not abs(result["avg_cc"] - case["avg_cc"]) <= 1e-9:
        failures.append(f"average CC {result['avg_cc']!r} != networkx {case['avg_cc']!r}")
    for kind in ("s", "t"):
        if not all(math.isfinite(v) for v in result[f"{kind}_fit"]):
            failures.append(f"{kind} fit not finite: {result[f'{kind}_fit']}")
    return failures


WORKLOAD_KINDS = {
    "experiment": (run_experiment, check_experiment),
    "profile": (run_profile, check_profile),
}


# -- iterations --------------------------------------------------------------


class Runner:
    """Runs and checks iterations of one workload; counts those that fail."""

    def __init__(self, args: argparse.Namespace):
        manifest = load_manifest()
        spec = manifest["workloads"][args.workload]
        self.workload, self.size, self.work = args.workload, args.size, Path(args.work)
        self.params = {size: spec["run"][size] for size in SIZES}
        self.cases = {size: manifest["inputs"][args.workload][size] for size in SIZES}
        self.variants = len(self.cases[self.size])
        self.operate, self.check = WORKLOAD_KINDS[spec["kind"]]
        self.out = self.work / "out" / args.workload
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        # report.json must repeat byte for byte across the runs of one source
        # tree on one input path with one set of run parameters, and only there
        source = hashlib.sha256()
        for path in sorted((ROOT / "src").rglob("*.py")):
            source.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
        scope = f"{source.hexdigest()}/{self.workload}/{self.work.resolve()}"
        self.digests_path = self.work / "report_digests.json"
        self.digests = json.loads(self.digests_path.read_text()) if self.digests_path.exists() else {}
        self.report_digests: dict[str, str] = self.digests.setdefault(scope, {})

    def save_digests(self) -> None:
        self.digests_path.write_text(json.dumps(self.digests, indent=1, sort_keys=True) + "\n")

    def warm_up(self) -> None:
        """One checked, untimed iteration on smoke-size variant 0.

        The first iteration in a process runs slower than the next ones
        (allocator growth, cold caches); the smaller smoke input pays that
        cost before timing starts.
        """
        self.iterate(0, size="smoke")

    def iterate(self, variant: int, tracer: Tracer | None = None, size: str | None = None) -> dict:
        """One checked iteration. Returns its wall and CPU seconds and output stats."""
        size = size or self.size
        params, case = self.params[size], self.cases[size][variant]
        path = input_path(self.work, self.workload, size, variant)
        failures = []
        if not path.exists() or sha256_file(path) != case["sha256"]:
            failures.append(f"input {path.name} missing or sha256 differs from manifest")
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)

        children_cpu = _children_cpu_seconds()
        cpu = _cpu_seconds()
        start = time.perf_counter()
        try:
            if tracer is None:
                result = self.operate(params, case, path, self.out)
            else:
                with tracer.installed(), tracer.span(ROOT_SPAN):
                    result = self.operate(params, case, path, self.out)
        except Exception as exc:  # a failed operation is counted, not fatal
            result = None
            failures.append(f"{type(exc).__name__}: {exc}")
        wall = time.perf_counter() - start
        cpu = _cpu_seconds() - cpu
        children_cpu = _children_cpu_seconds() - children_cpu

        if result is not None:
            failures += self.check(params, case, result, self.out)
            digest = result.get("report_sha256")
            key = f"{size}/{variant}/{json.dumps(params, sort_keys=True)}"
            if digest is not None:
                if self.report_digests.setdefault(key, digest) != digest:
                    failures.append(f"report.json of variant {variant} differs between runs")
        self.attempted += 1
        self.failed += bool(failures)
        self.failures += [f"{size} variant {variant}: {f}" for f in failures]
        files = [p for p in self.out.rglob("*") if p.is_file()]
        return {
            "variant": variant,
            "wall_s": wall,
            "cpu_s": cpu,
            "worker_cpu_s": children_cpu,
            "out_files": len(files),
            "out_bytes": sum(p.stat().st_size for p in files),
        }


def _spent(start: float, durations: list[float], seconds: float) -> bool:
    """True once another iteration of median length would overrun the time."""
    return time.perf_counter() - start + statistics.median(durations) > seconds


def _median_of_variant_medians(iterations: list[dict], key: str) -> float:
    variants = sorted({i["variant"] for i in iterations})
    return statistics.median(
        statistics.median(i[key] for i in iterations if i["variant"] == v) for v in variants
    )


def measure(runner: Runner, seed: int, seconds: float) -> dict:
    """Iterations over the input variants in turn until the time is spent.

    The variants differ in work (an experiment's calibration may need two
    probes more on one than on another), so a time is the median over the
    variants of each variant's median: a count of iterations that differs
    between variants does not weight them, and one iteration slowed by the
    host moves it little. Every variant runs at least once, and the seed sets
    the order. The warm-up counts against the time.
    """
    start = time.perf_counter()
    runner.warm_up()
    iterations: list[dict] = []
    while len(iterations) < runner.variants or not _spent(
        start, [i["wall_s"] for i in iterations], seconds
    ):
        iterations.append(runner.iterate((seed + len(iterations)) % runner.variants))
    return {
        "iterations": iterations,
        "wall_s": _median_of_variant_medians(iterations, "wall_s"),
        "cpu_s": _median_of_variant_medians(iterations, "cpu_s"),
        "peak_rss_mb": _peak_rss_mb(),
    }


COUNT_METRICS = (
    "graph.avg_cc_calls", "census.calls", "census.triangles", "growth.generate_calls",
    "growth.generated_edges", "growth.pilot_networks", "models.fit_calls",
    "models.nonconverged", "models.model_evals", "stats.ttest_calls",
    "pipeline.out_files", "pipeline.out_bytes", "trace.worker_spans",
)


def measure_traced(runner: Runner, seed: int, seconds: float) -> dict:
    """Alternate untraced and traced iterations of one input; per-layer medians."""
    variant = seed % runner.variants
    start = time.perf_counter()
    runner.warm_up()
    untraced, traced = [], []
    while not traced or not _spent(
        start, [u["wall_s"] + t["trace.wall_s"] for u, t in zip(untraced, traced)], seconds
    ):
        untraced.append(runner.iterate(variant))
        tracer = Tracer(runner.work / "trace" / str(len(traced)))
        shutil.rmtree(tracer.trace_dir, ignore_errors=True)
        iteration = runner.iterate(variant, tracer)
        metrics = layer_metrics(tracer.collect(), tracer.model_evals)
        metrics.update(
            {
                "pipeline.out_files": iteration["out_files"],
                "pipeline.out_bytes": iteration["out_bytes"],
                "pipeline.worker_cpu_s": iteration["worker_cpu_s"],
                "trace.wall_s": iteration["wall_s"],
            }
        )
        self_total = metrics["pipeline.self_s"] + sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
        metrics["trace.unaccounted_s"] = iteration["wall_s"] - self_total
        traced.append(metrics)
    # the counts of a fixed input must repeat exactly; that is one more check
    counts = [{name: m[name] for name in COUNT_METRICS} for m in traced]
    runner.attempted += 1
    if any(c != counts[0] for c in counts):
        runner.failed += 1
        runner.failures.append(f"per-layer counts differ between traced runs of variant {variant}")
    result = {name: statistics.median(m[name] for m in traced) for name in traced[0]}
    result.update(counts[0])
    untraced_wall = statistics.median(u["wall_s"] for u in untraced)
    result["trace.overhead_s"] = result["trace.wall_s"] - untraced_wall
    notes = []
    if runner.params[runner.size].get("workers", 1) > 1 and result["trace.worker_spans"] == 0:
        notes.append("worker spans did not reach the trace; per-layer times cover the main process only")
    return {"variant": variant, "pairs": len(traced), "notes": notes, "metrics": result}


# -- entry -------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--work", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.mode == "setup":
        # the smoke-size inputs serve every run's warm-up
        mismatched = []
        for size in sorted({args.size, "smoke"}):
            mismatched += ensure_inputs(load_manifest(), args.workload, size, Path(args.work))
        print(json.dumps({"mismatched": mismatched}))
        return 0

    runner = Runner(args)
    if args.trace:
        result = measure_traced(runner, args.seed, args.seconds)
    else:
        result = measure(runner, args.seed, args.seconds)
    runner.save_digests()
    result.update(attempted=runner.attempted, failed=runner.failed, failures=runner.failures)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
