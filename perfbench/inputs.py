"""Seeded stand-in input networks for the benchmark workloads.

Every input is drawn with networkx's Holme-Kim generator
(`networkx.powerlaw_cluster_graph`), never with adjfactor, so a change to
adjfactor's own generator cannot change what the benchmark measures.
`manifest.json` records, for each workload, size and variant, the networkx
seed, the sha256 of the edge-list file, and networkx's node, edge and
triangle counts and average clustering coefficient. Those values are the
independent oracles the output checks compare against.

Regenerate the recorded inputs and environment (about a minute):

    python3 perfbench/inputs.py
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
from pathlib import Path

HERE = Path(__file__).resolve().parent
MANIFEST_PATH = HERE / "manifest.json"
SIZES = ("full", "smoke")


def load_manifest() -> dict:
    return json.loads(MANIFEST_PATH.read_text(encoding="utf-8"))


def input_path(work: Path, workload: str, size: str, variant: int) -> Path:
    return work / "inputs" / f"{workload}-{size}-{variant}.edges"


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _draw(spec: dict, seed: int):
    import networkx as nx  # needed only when an input is drawn

    return nx.powerlaw_cluster_graph(spec["nodes"], spec["m"], spec["p"], seed=seed)


def _edge_list_text(graph) -> str:
    edges = sorted((min(u, v), max(u, v)) for u, v in graph.edges())
    return "".join(f"{u} {v}\n" for u, v in edges)


def ensure_inputs(manifest: dict, workload: str, size: str, work: Path) -> list[str]:
    """Draw the missing inputs of one workload and size.

    Returns the file names whose sha256 differs from the manifest.
    """
    spec = manifest["workloads"][workload]["input"][size]
    mismatched = []
    for variant, expected in enumerate(manifest["inputs"][workload][size]):
        path = input_path(work, workload, size, variant)
        if not path.exists():
            path.parent.mkdir(parents=True, exist_ok=True)
            partial = path.with_suffix(".partial")
            partial.write_text(_edge_list_text(_draw(spec, expected["seed"])), encoding="utf-8")
            partial.replace(path)
        if sha256_file(path) != expected["sha256"]:
            mismatched.append(path.name)
    return mismatched


def _record(spec: dict, seed: int) -> dict:
    import networkx as nx

    graph = _draw(spec, seed)
    return {
        "seed": seed,
        "sha256": hashlib.sha256(_edge_list_text(graph).encode("utf-8")).hexdigest(),
        "nodes": graph.number_of_nodes(),
        "edges": graph.number_of_edges(),
        "triangles": sum(nx.triangles(graph).values()) // 3,
        "avg_cc": nx.average_clustering(graph),
    }


def _environment() -> dict:
    import networkx
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "nproc": os.cpu_count(),
    }


def main() -> None:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    manifest = load_manifest()
    manifest["inputs"] = {
        workload: {
            size: [_record(spec["input"][size], seed) for seed in range(manifest["variants"])]
            for size in SIZES
        }
        for workload, spec in manifest["workloads"].items()
    }
    manifest["environment"] = _environment()
    MANIFEST_PATH.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
