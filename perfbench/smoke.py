"""Smoke test of the benchmark harness on tiny inputs (about a minute).

    python3 perfbench/smoke.py

For every workload in BENCHMARK.json it runs run.py untraced and traced on the
smoke-size inputs, and checks that every metric BENCHMARK.json names is
printed with its unit and that no check failed. It then truncates one input
and checks that the run reports failures, and runs the benchmark from a copy
holding only BENCHMARK.json and perfbench/, where it must fail without a
result. Its files go to .bench_build/perfbench-smoke/. It is not part of the
tier-1 test suite.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build" / "perfbench-smoke"


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    command = [sys.executable, "perfbench/run.py", "--seconds", "1", *args]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(run: subprocess.CompletedProcess) -> dict:
    if run.returncode != 0:
        raise AssertionError(f"run.py exited {run.returncode}:\n{run.stderr}")
    return json.loads(run.stdout.strip().splitlines()[-1])


def main() -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        0: {m["name"]: m["unit"] for m in benchmark["end_to_end"]},
        1: {m["name"]: m["unit"] for m in benchmark["per_layer"]},
    }
    common = ("--size", "smoke", "--work", str(WORK), "--seed", "0")
    for workload in (w["name"] for w in benchmark["workloads"]):
        for trace in (0, 1):
            run = bench("--workload", workload, "--trace", str(trace), *common)
            result = result_of(run)
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            assert printed == expected[trace], f"{workload} trace {trace}: metrics {printed}"
            # the human-readable lines read "<name> <value> <unit>"
            lines = {line.split()[0]: line.split()[-1] for line in run.stdout.splitlines()[:-1] if line}
            for name, unit in printed.items():
                assert lines.get(name) == unit, f"{workload}: no line '{name} <value> {unit}'"
            assert result["correct"] and result["failed"] == 0, f"{workload}: {run.stdout}"
            assert "fail_ratio 0.0 ratio" in run.stdout, f"{workload}: no fail_ratio line"
        print(f"ok   {workload}: every metric printed with its unit, fail_ratio 0")

        # seed 0 runs variant 0 first; drop its last edge
        path = WORK / "inputs" / f"{workload}-smoke-0.edges"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(lines[:-1]), encoding="utf-8")
        try:
            result = result_of(bench("--workload", workload, "--trace", "0", *common))
        finally:
            path.unlink()  # the next run draws it again
        assert not result["correct"] and result["failed"] > 0, f"{workload}: {result}"
        print(f"ok   {workload}: corrupted input gives fail_ratio {result['failed'] / result['attempted']}")

    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    run = bench("--workload", "dnc-experiment", "--trace", "0", "--seed", "0", cwd=bare)
    assert run.returncode != 0 and '"metrics"' not in run.stdout, run.stdout
    shutil.rmtree(bare)
    print("ok   without the program: exit code", run.returncode, "and no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
