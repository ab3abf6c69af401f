"""The benchmark's workloads: input graphs, mining parameters, query mixes.

Each workload is one dataset analog from ``repro.datasets.registry``,
mined with the registry's own γ, τ_size, τ_split and τ_time for it, plus
the repeat counts and query mix the benchmark runs on it. The benchmark builds the graph itself and hands the program
only the edge-list file it writes.

What ``--seed`` changes: the analog is built from its registry recipe at
the recipe's own seed, then every vertex is renamed by a seeded
*order-preserving* map (each new ID is the previous one plus a random
gap of 1 to 4). The seed therefore changes the edge-list file, the hash
partition of vertices over pool and cluster workers, and every query
draw, but not the set-enumeration order, so the mining work is the same
for every seed. A fresh recipe seed per run would move serial mining
time on the youtube analog between 2.3 s and 4.7 s (eight seeds), which
is wider than any bound the benchmark can hold, and one run cannot
afford enough graphs to average that out.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass

#: Open-loop query rate (req/s) of the busy phase and of the traced
#: run's idle phase. Over two connections taken round-robin, each
#: connection is reused only every 100 ms. Today's daemon stalls an answer by ~40 ms (delayed ACK)
#: when its connection was reused within 40 ms of the previous answer;
#: at this rate that never happens twice in a row, so the phase has one
#: steady regime. At rates where reuse comes sooner, latency flips
#: between ~1 ms and ~44 ms from run to run. The stall itself shows in
#: the sequential phase and caps ``query_max_rps``.
IDLE_RATE = 20.0
BUSY_RATE = 20.0
#: The ladder for ``query_max_rps`` (req/s), doubling from a rate today's
#: daemon meets to far past what a stdlib HTTP server on two cores can
#: serve. Today the stall caps two connections at ~45 req/s; no rung sits
#: between that and ~49 req/s, where each connection's reuse gap crosses
#: the 40 ms delayed-ACK timeout and a rung passes or fails by chance.
RATE_LADDER = (15.0, 30.0, 60.0, 120.0, 240.0, 480.0, 960.0, 1920.0)
#: A ladder rung passes when its p99 latency (from due time) is at most this.
LATENCY_LIMIT_MS = 100.0
#: Communities returned per query (``?top=k``).
QUERY_TOP = 3


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    dataset: str
    #: Runs of each library path per benchmark run (each metric is their
    #: median), sized so that every timed phase lasts seconds; and jobs
    #: beside the busy queries, sized so that the busy phase holds
    #: ~120 samples.
    serial_repeats: int
    pool_repeats: int
    cluster_repeats: int
    busy_jobs: int
    #: 'hot' (Zipf over community members) or 'cold' (uniform over a key
    #: space larger than the store's 1,024-entry cache).
    mix: str

    @property
    def spec(self):
        """The registry's recipe, with the γ, τ_size, τ_split and τ_time to mine it at."""
        from repro.datasets.registry import get_dataset

        return get_dataset(self.dataset)

    def engine_payload(self) -> dict:
        """EngineConfig fields shared by every path (JSON-shaped)."""
        spec = self.spec
        return {
            "tau_split": spec.tau_split,
            "tau_time": spec.tau_time_ops,
            "time_unit": "ops",
        }


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="youtube-skew",
            why="a few giant overlapping cores time out and decompose into "
                "~1,100 subtasks: kernel, decomposition and pool balance "
                "dominate; hot cached queries",
            dataset="youtube",
            serial_repeats=2, pool_repeats=3, cluster_repeats=1, busy_jobs=2,
            mix="hot",
        ),
        Workload(
            name="enron-spawn",
            why="~960 spawned roots with small tasks: spawning and cluster "
                "coordination dominate; cold queries miss the cache",
            dataset="enron",
            serial_repeats=5, pool_repeats=6, cluster_repeats=2, busy_jobs=3,
            mix="cold",
        ),
    )
}


@dataclass
class Instance:
    """One workload's generated input: the graph and what the benchmark knows."""

    workload: Workload
    seed: int
    edges: list[tuple[int, int]]
    vertices: list[int]
    planted: list[frozenset[int]]

    def write_edge_list(self, path: str) -> None:
        with open(path, "w") as f:
            f.write(f"# {self.workload.name} seed={self.seed}\n")
            f.writelines(f"{u} {v}\n" for u, v in self.edges)


def build_instance(workload: Workload, seed: int) -> Instance:
    """The workload's graph, renamed by the seed's order-preserving map."""
    planted_graph = workload.spec.build()
    graph = planted_graph.graph
    rng = random.Random(f"relabel:{seed}")
    rename: dict[int, int] = {}
    next_id = 0
    for v in sorted(graph.vertices()):
        next_id += rng.randint(1, 4)
        rename[v] = next_id
    edges = [(rename[u], rename[v]) for u, v in graph.edges()]
    return Instance(
        workload=workload,
        seed=seed,
        edges=edges,
        vertices=sorted(rename.values()),
        planted=[frozenset(rename[v] for v in core) for core in planted_graph.planted],
    )


class QueryMix:
    """Seeded stream of ``(vertices, top)`` community queries."""

    def __init__(self, instance: Instance, stream: str):
        self.rng = random.Random(f"queries:{instance.seed}:{stream}")
        members = sorted(set().union(*instance.planted))
        if instance.workload.mix == "hot":
            # Zipf(1.2) over a seeded ranking of community members.
            ranked = members[:]
            random.Random(f"rank:{instance.seed}").shuffle(ranked)
            self.keys = [(v,) for v in ranked]
            weights = [1.0 / (rank ** 1.2) for rank in range(1, len(ranked) + 1)]
        elif instance.workload.mix == "cold":
            pairs = sorted({
                (u, v)
                for core in instance.planted
                for u, v in itertools.combinations(sorted(core), 2)
            })
            self.keys = [(v,) for v in instance.vertices] + pairs
            weights = [1.0] * len(self.keys)
        else:
            raise ValueError(f"unknown query mix {instance.workload.mix!r}")
        self.cumulative = list(itertools.accumulate(weights))

    def __call__(self) -> tuple[tuple[int, ...], int]:
        x = self.rng.random() * self.cumulative[-1]
        return self.keys[bisect.bisect_right(self.cumulative, x)], QUERY_TOP
