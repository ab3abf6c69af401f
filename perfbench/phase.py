"""Run one library mining path in a fresh process and report it as JSON.

    python3 perfbench/phase.py --graph G.txt --path serial|pool|cluster \
        --gamma 0.9 --min-size 13 --tau-split 50 --tau-time 5000 \
        --workers 2 --repeats 2 [--tiny] [--trace]

Each repeat reads nothing new: the edge list is read once, then mined
``--repeats`` times with ``mine_parallel`` on the chosen backend; only
the mining call is timed. ``--tiny`` first mines a one-clique graph on
the same backend, timing the backend's fixed start-up cost. ``--trace``
attaches the program's own ``Tracer`` and counts its ``result_fold``
spans. Running in its own process gives each path its own peak resident
set, and the workers' peak is reported.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.graph.adjacency import Graph  # noqa: E402
from repro.graph.io import read_edge_list  # noqa: E402
from repro.gthinker import EngineConfig, Tracer, mine_parallel  # noqa: E402
from repro.gthinker.obs.spans import parse_detail  # noqa: E402

BACKENDS = {"serial": "auto", "pool": "process", "cluster": "cluster"}


def family_json(family) -> list[list[int]]:
    return sorted(sorted(s) for s in family)


def metrics_json(metrics) -> dict:
    doc = dataclasses.asdict(metrics)
    doc.pop("task_records", None)
    doc["timing"] = {str(k): v for k, v in doc["timing"].items()}
    return doc


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--graph", required=True)
    parser.add_argument("--path", choices=sorted(BACKENDS), required=True)
    parser.add_argument("--gamma", type=float, required=True)
    parser.add_argument("--min-size", type=int, required=True)
    parser.add_argument("--tau-split", type=int, required=True)
    parser.add_argument("--tau-time", type=float, required=True)
    parser.add_argument("--workers", type=int, default=1,
                        help="pool and cluster worker processes")
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    config = EngineConfig(
        backend=BACKENDS[args.path],
        num_procs=args.workers if args.path != "serial" else 0,
        tau_split=args.tau_split,
        tau_time=args.tau_time,
        time_unit="ops",
    )
    out: dict = {}
    if args.tiny:
        clique = range(args.min_size + 1)
        tiny = Graph.from_edges(itertools.combinations(clique, 2))
        t0 = time.perf_counter()
        result = mine_parallel(tiny, args.gamma, args.min_size, config)
        out["tiny_s"] = time.perf_counter() - t0
        out["tiny_family"] = family_json(result.maximal)

    graph = read_edge_list(args.graph)
    times, families = [], []
    for _ in range(args.repeats):
        tracer = Tracer(capacity=1_000_000) if args.trace else None
        t0 = time.perf_counter()
        result = mine_parallel(graph, args.gamma, args.min_size, config, tracer=tracer)
        times.append(time.perf_counter() - t0)
        families.append(family_json(result.maximal))
    out["times"] = times
    out["families"] = families
    out["metrics"] = metrics_json(result.metrics)
    if tracer is not None:
        out["result_fold_spans"] = sum(
            1 for e in tracer.events("span_end")
            if parse_detail(e.detail).get("name") == "result_fold"
        )
    # ru_maxrss is in KiB on Linux; reaped pool and cluster workers count here.
    out["rss_children_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
