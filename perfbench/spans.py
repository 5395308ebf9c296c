"""Spans and counts recorded around adjfactor's public functions, from outside.

`Tracer.installed()` swaps wrappers into the module namespaces through which
the pipeline, the generator and the library API call each layer, and puts the
originals back on exit. Each wrapped call becomes one span: its name, its
inclusive and self seconds, the span that called it, and a few counts read
from its result. Calls to the model functions are counted, not timed, because
a fit makes tens of thousands of them.

Spans stay in memory in the traced process. Worker processes forked by the
pipeline inherit the wrappers; they append each finished span, with the model
evaluations counted since their previous span, to `spans-<pid>.jsonl` in the
trace directory, and `collect()` reads those files back.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
import weakref
from contextlib import contextmanager
from pathlib import Path

# Namespaces holding the names below: the package (library API used by the
# profile workload), and the modules the pipeline and calibration call through.
MODULES = ("adjfactor", "adjfactor.pipeline", "adjfactor.growth", "adjfactor.models")

# Wrapped name -> span name. census and fit spans take their suffix from the
# result (census.s / census.t, models.fit_s_complex / models.fit_emg); the
# name here is kept only when the call raises.
SPAN_NAMES = {
    "load_edge_list": "graph.load",
    "average_clustering_coefficient": "graph.avg_cc",
    "write_edge_list": "graph.write_edges",
    "census": "census.failed",
    "to_distribution": "census.distribution",
    "write_distribution_csv": "census.distribution",
    "generate_pa_tf": "growth.generate",
    "calibrate_pt": "growth.calibrate",
    "fit": "models.fit_failed",
    "one_sample_t_test": "stats.ttest",
}
COUNTED = ("s_complex_model", "emg_model")

ROOT_SPAN = "pipeline"
LAYERS = ("graph", "census", "growth", "models", "stats")


def _result_name(name: str, result) -> tuple[str, dict]:
    """Span name and attributes read from a wrapped call's result."""
    if name == "census":
        return f"census.{result.kind}", {"units": len(result)}
    if name == "fit":
        return f"models.fit_{result.model}", {"converged": bool(result.converged)}
    if name == "generate_pa_tf":
        return SPAN_NAMES[name], {"edges": result.edge_count}
    return SPAN_NAMES[name], {}


class Tracer:
    """Records spans of one traced run. Create one per run."""

    def __init__(self, trace_dir: Path):
        self.trace_dir = Path(trace_dir)
        self.pid = os.getpid()
        self.records: list[dict] = []
        self.model_evals = 0
        self._stack: list[list] = []  # [name, start, child seconds]
        # a forked worker starts counting its own model evaluations from zero
        after_fork = weakref.WeakMethod(self._after_fork)
        os.register_at_fork(after_in_child=lambda: after_fork() and after_fork()())

    def _after_fork(self) -> None:
        self.records = []
        self.model_evals = 0

    # -- recording ---------------------------------------------------------

    def _in_worker(self) -> bool:
        return os.getpid() != self.pid

    def _open(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def _close(self, name: str | None, attrs: dict) -> None:
        opened, start, child = self._stack.pop()
        duration = time.perf_counter() - start
        if self._stack:
            self._stack[-1][2] += duration
        record = {
            "name": name or opened,
            "parent": self._stack[-1][0] if self._stack else None,
            "inclusive_s": duration,
            "self_s": duration - child,
            "in_calibration": any(frame[0] == "growth.calibrate" for frame in self._stack),
            "worker": self._in_worker(),
            **attrs,
        }
        if record["worker"]:
            record["model_evals"], self.model_evals = self.model_evals, 0
            with open(self.trace_dir / f"spans-{os.getpid()}.jsonl", "a", encoding="utf-8") as handle:
                handle.write(json.dumps(record) + "\n")
        else:
            self.records.append(record)

    @contextmanager
    def span(self, name: str):
        self._open(name)
        try:
            yield
        finally:
            self._close(None, {})

    def _wrap(self, name: str, original):
        if name in COUNTED:

            @functools.wraps(original)
            def counted(*args, **kwargs):
                self.model_evals += 1
                return original(*args, **kwargs)

            return counted

        @functools.wraps(original)
        def spanned(*args, **kwargs):
            self._open(SPAN_NAMES[name])
            span_name, attrs = None, {}
            try:
                result = original(*args, **kwargs)
                span_name, attrs = _result_name(name, result)
                return result
            finally:
                self._close(span_name, attrs)

        return spanned

    @contextmanager
    def installed(self):
        """Wrap every traced name in MODULES for the duration of the block."""
        self.trace_dir.mkdir(parents=True, exist_ok=True)
        saved = []
        try:
            for module_name in MODULES:
                module = importlib.import_module(module_name)
                for name in (*SPAN_NAMES, *COUNTED):
                    original = module.__dict__.get(name)
                    if callable(original):
                        saved.append((module, name, original))
                        setattr(module, name, self._wrap(name, original))
            yield self
        finally:
            for module, name, original in reversed(saved):
                setattr(module, name, original)

    def collect(self) -> list[dict]:
        """Spans of this process followed by those that worker processes wrote."""
        records = list(self.records)
        for path in sorted(self.trace_dir.glob("spans-*.jsonl")):
            with open(path, encoding="utf-8") as handle:
                records.extend(json.loads(line) for line in handle)
        return records


def layer_metrics(records: list[dict], main_model_evals: int) -> dict[str, float]:
    """Per-layer metrics of one traced run from its spans.

    `*_s` sums inclusive seconds over every process. `<layer>.self_s` sums self
    seconds over the traced process only, so that together with
    `pipeline.self_s` (the root span's own time, which includes waiting for
    workers) it adds up to the root span's duration.
    """

    def named(*names: str) -> list[dict]:
        return [r for r in records if r["name"] in names]

    def seconds(*names: str) -> float:
        return sum(r["inclusive_s"] for r in named(*names))

    generated = named("growth.generate")
    pilots = sum(1 for r in generated if r["in_calibration"])
    fits = named("models.fit_s_complex", "models.fit_emg")
    root = [r for r in records if r["name"] == ROOT_SPAN and not r["worker"]]
    metrics = {
        "graph.load_s": seconds("graph.load"),
        "graph.avg_cc_s": seconds("graph.avg_cc"),
        "graph.avg_cc_calls": len(named("graph.avg_cc")),
        "graph.write_edges_s": seconds("graph.write_edges"),
        "census.s_s": seconds("census.s"),
        "census.t_s": seconds("census.t"),
        "census.calls": len(named("census.s", "census.t")),
        "census.triangles": sum(r["units"] for r in named("census.t")),
        "census.distribution_s": seconds("census.distribution"),
        "growth.generate_s": seconds("growth.generate"),
        "growth.generate_calls": len(generated),
        "growth.generated_edges": sum(r["edges"] for r in generated),
        "growth.calibrate_s": seconds("growth.calibrate"),
        "growth.pilot_networks": pilots,
        # replica networks over all networks grown; 0 when nothing is grown
        "growth.useful_ratio": (len(generated) - pilots) / len(generated) if generated else 0.0,
        "models.fit_s_complex_s": seconds("models.fit_s_complex"),
        "models.fit_emg_s": seconds("models.fit_emg"),
        "models.fit_calls": len(fits),
        "models.nonconverged": sum(1 for r in fits if not r["converged"]),
        "models.model_evals": main_model_evals + sum(r.get("model_evals", 0) for r in records),
        "stats.ttest_s": seconds("stats.ttest"),
        "stats.ttest_calls": len(named("stats.ttest")),
        "pipeline.self_s": sum(r["self_s"] for r in root),
        "trace.worker_spans": sum(1 for r in records if r["worker"]),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(
            r["self_s"] for r in records if not r["worker"] and r["name"].split(".")[0] == layer
        )
    return metrics
