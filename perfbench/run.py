"""Benchmark of adjfactor: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload dnc-experiment --seed 0 --seconds 30 --trace 0

The program measured is the adjfactor source tree of the checkout this file
sits in (`src/`). Inputs are drawn once into `.bench_build/perfbench/` and
verified by sha256 on every use. Untraced (`--trace 0`) the last line of
output is a JSON object with the end-to-end metrics of BENCHMARK.json;
traced (`--trace 1`) it holds the per-layer metrics. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
UNITS = {"_s": "s", "_mb": "MB", "_ratio": "ratio", "_bytes": "bytes"}


def _unit(name: str) -> str:
    return next((unit for suffix, unit in UNITS.items() if name.endswith(suffix)), "count")


def _run_child(argv: list[str], timeout: float) -> str:
    """Run a child interpreter in its own session; kill the session on timeout."""
    process = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *argv],
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{argv[0]} did not finish within {timeout:g} s") from None
    finally:
        if process.poll() is None:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
    if process.returncode != 0:
        raise RuntimeError(f"{argv[0]} exited with code {process.returncode}")
    return out.strip().splitlines()[-1]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--work", default=str(ROOT / ".bench_build" / "perfbench"))
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "adjfactor" / "__init__.py").is_file():
        print(f"error: no adjfactor sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    manifest = json.loads((HERE / "manifest.json").read_text(encoding="utf-8"))
    if args.workload not in manifest["workloads"]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    common = ["--workload", args.workload, "--size", args.size, "--work", args.work]
    setup_times = []
    try:
        for _ in range(1 if args.trace else SETUP_PROBES):
            start = time.perf_counter()
            probe = json.loads(_run_child(["setup", *common], timeout=900))
            setup_times.append(time.perf_counter() - start)
        for name in probe["mismatched"]:
            print(f"input {name}: sha256 differs from manifest.json", file=sys.stderr)
        run = ["run", *common, "--seed", str(args.seed), "--seconds", str(args.seconds)]
        timed = json.loads(_run_child([*run, "--trace", str(args.trace)], timeout=args.seconds * 2 + 120))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        values = timed["metrics"]
        print(f"traced variant {timed['variant']}: {timed['pairs']} untraced/traced pairs")
        for note in timed["notes"]:
            print(f"note: {note}")
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": timed["wall_s"],
            "cpu_s": timed["cpu_s"],
            "peak_rss_mb": timed["peak_rss_mb"],
        }
        variants = ",".join(str(i["variant"]) for i in timed["iterations"])
        print(f"{len(timed['iterations'])} iterations on variants {variants}")
    for failure in timed["failures"]:
        print(f"FAILED {failure}")
    attempted, failed = timed["attempted"], timed["failed"]
    metrics = {name: {"value": value, "unit": _unit(name)} for name, value in values.items()}
    for name, metric in metrics.items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    print(f"fail_ratio {failed / attempted!r} ratio ({failed} of {attempted})")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
