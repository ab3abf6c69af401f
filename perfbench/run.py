"""End-to-end benchmark: every mining path and the mining service, checked.

    python3 perfbench/run.py --workload youtube-skew --seed 1 --seconds 40 --trace 0

One run builds the workload's graph (see ``workloads.py``), writes it as
an edge list, and drives the program through that file only:

1. set-up, nine times: ``read_edge_list`` plus starting
   ``quasiclique-mine serve`` until ``/healthz`` answers;
2. ``mine_parallel`` on the serial engine, the process pool and the
   localhost TCP cluster, each in a fresh process (``phase.py``);
3. one service job, whose results the queries ask about;
4. community queries from keep-alive connections: a sequential client
   on the idle daemon and a rate ladder;
5. further jobs, one at a time, while queries run beside them at a
   fixed rate.

Every mined family and every query answer is checked by ``checker.py``.
``--seconds`` sets the query phases: the sequential phase lasts 3/40
of it and each ladder rung 3/80; the mining phases and the busy jobs
run the workload's whole, fixed repeat counts.

With ``--trace 0`` the last line of standard output is one JSON object
with the end-to-end metrics; with ``--trace 1`` the run instead walks
the layers in process with spans around each call and prints the
per-layer metrics (spans are written to ``perfbench/work/`` at the end).
The exit code is 1 when any check fails and 2 when the program's
sources are missing.
"""

from __future__ import annotations

import argparse
import http.client
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: name → unit, for the ``--trace 0`` run.
END_TO_END = {
    "setup_s": "s",
    "mine_s": "s",
    "pool_mine_s": "s",
    "cluster_mine_s": "s",
    "seq_query_p50_ms": "ms",
    "query_max_rps": "req/s",
    "busy_query_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

#: name → unit, for the ``--trace 1`` run.
PER_LAYER = {
    "graph.read_s": "s", "graph.kcore_s": "s", "graph.spawn_s": "s",
    "graph.roots": "count", "graph.spawn_vertices": "count",
    "core.kernel_s": "s", "core.postprocess_s": "s",
    "core.nodes_expanded": "count", "core.bounding_rounds": "count",
    "core.mining_ops": "count", "core.candidates": "count",
    "core.candidate_yield": "ratio",
    "engine.overhead_s": "s", "engine.materialize_s": "s",
    "engine.tasks_spawned": "count", "engine.tasks_executed": "count",
    "engine.tasks_decomposed": "count", "engine.subtasks_created": "count",
    "pool.startup_s": "s", "pool.worker_busy_s": "s", "pool.worker_idle_s": "s",
    "pool.busy_imbalance": "ratio", "pool.speedup": "ratio",
    "cluster.startup_s": "s", "cluster.worker_busy_s": "s",
    "cluster.worker_idle_s": "s", "cluster.result_batches": "count",
    "cluster.remote_messages": "count", "cluster.vertex_misses": "count",
    "cluster.vertex_hit_ratio": "ratio",
    "service.runner_s": "s", "service.job_wait_s": "s", "service.job_run_s": "s",
    "store.index_load_s": "s", "store.hit_us": "us", "store.miss_us": "us",
    "store.cache_hits": "count", "store.cache_misses": "count",
    "server.overhead_ms": "ms",
    "rss.pool_worker_mb": "MB", "rss.cluster_worker_mb": "MB", "rss.daemon_mb": "MB",
    "loadgen.lateness_ms": "ms", "trace.overhead": "ratio",
}


def worker_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# -- the daemon ----------------------------------------------------------------


class Daemon:
    """``quasiclique-mine serve`` as a child process on an ephemeral port."""

    def __init__(self, root_dir: str):
        self.root_dir = root_dir
        os.makedirs(root_dir)
        port_file = os.path.join(root_dir, "port")
        self.log = open(os.path.join(root_dir, "serve.log"), "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--root", root_dir,
             "--port", "0", "--port-file", port_file],
            env=child_env(), stdout=self.log, stderr=subprocess.STDOUT,
        )
        deadline = time.monotonic() + 60
        while not os.path.exists(port_file):
            self._check_alive(deadline)
            time.sleep(0.002)
        with open(port_file) as f:
            self.port = int(f.read())
        while True:
            self._check_alive(deadline)
            try:
                if self.request("GET", "/healthz")[0] == 200:
                    break
            except OSError:
                time.sleep(0.002)

    def _check_alive(self, deadline: float) -> None:
        if self.proc.poll() is not None:
            raise RuntimeError(f"daemon exited with {self.proc.returncode}")
        if time.monotonic() > deadline:
            raise RuntimeError("daemon did not answer /healthz within 60 s")

    @property
    def jobs_dir(self) -> str:
        return os.path.join(self.root_dir, "jobs")

    def request(self, method: str, path: str, body: dict | None = None):
        """One request on a fresh connection (the control path, not the load)."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            data = json.dumps(body).encode() if body is not None else None
            headers = {"Content-Type": "application/json"} if data else {}
            conn.request(method, path, body=data, headers=headers)
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    def peak_rss_mb(self) -> float:
        """VmHWM of the daemon process (Linux), 0 when unreadable."""
        try:
            with open(f"/proc/{self.proc.pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1]) / 1024
        except OSError:
            pass
        return 0.0

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


def job_seconds(doc: dict) -> float:
    """A job's time from ``POST /jobs`` to completed, by its own timestamps.

    Read from the document, the 100 ms poll neither rounds it nor, by
    answering polls, takes much of the daemon's time.
    """
    return doc["finished"] - doc["submitted"]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# -- one benchmark run ---------------------------------------------------------


@dataclass
class Ledger:
    """Operations attempted and failed, per phase."""

    rows: dict[str, list[int]] = field(default_factory=dict)

    def add(self, phase: str, attempted: int, failed: int = 0) -> None:
        row = self.rows.setdefault(phase, [0, 0])
        row[0] += attempted
        row[1] += failed

    @property
    def attempted(self) -> int:
        return sum(r[0] for r in self.rows.values())

    @property
    def failed(self) -> int:
        return sum(r[1] for r in self.rows.values())


class Run:
    def __init__(self, workload, seed: int, seconds: float, work: str, spans=None):
        from checker import Checker, read_adjacency
        from workloads import build_instance

        self.workload = workload
        self.params = workload.spec
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.spans = spans
        self.ledger = Ledger()
        self.errors: list[str] = []
        self.families: dict[str, set[frozenset[int]]] = {}
        self.daemons: list[Daemon] = []
        self.instance = build_instance(workload, seed)
        self.graph_path = os.path.join(work, "graph.txt")
        self.instance.write_edge_list(self.graph_path)
        self.checker = Checker(
            read_adjacency(self.graph_path), self.params.gamma, self.params.min_size,
            self.instance.planted,
        )

    # -- helpers ---------------------------------------------------------------

    def start_daemon(self) -> Daemon:
        daemon = Daemon(os.path.join(self.work, f"daemon{len(self.daemons)}"))
        self.daemons.append(daemon)
        return daemon

    def stop_daemons(self) -> None:
        for daemon in self.daemons:
            daemon.stop()

    def setup(self, times: int = 9) -> tuple[list[float], Daemon]:
        """Read the edge list and start the daemon, `times` times; keep the last daemon."""
        from repro.graph.io import read_edge_list

        samples = []
        daemon = None
        for i in range(times):
            if daemon is not None:
                daemon.stop()
            t0 = time.perf_counter()
            read_edge_list(self.graph_path)
            daemon = self.start_daemon()
            samples.append(time.perf_counter() - t0)
        self.ledger.add("setup", times)
        return samples, daemon

    def mine_path(self, path: str, repeats: int, tiny: bool = False,
                  trace: bool = False) -> dict | None:
        """Run one library path in its own process; None if it failed."""
        p = self.params
        cmd = [sys.executable, os.path.join(HERE, "phase.py"),
               "--graph", self.graph_path, "--path", path,
               "--gamma", str(p.gamma), "--min-size", str(p.min_size),
               "--tau-split", str(p.tau_split), "--tau-time", str(p.tau_time_ops),
               "--workers", str(worker_count()), "--repeats", str(repeats)]
        if tiny:
            cmd.append("--tiny")
        if trace:
            cmd.append("--trace")
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170,
                              env=child_env())
        if proc.returncode != 0:
            self.ledger.add(path, repeats, repeats)
            self.errors.append(f"{path} path exited {proc.returncode}")
            sys.stderr.write(f"{path} path failed:\n{proc.stderr[-2000:]}\n")
            return None
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        self.ledger.add(path, repeats)
        for i, family in enumerate(out["families"]):
            self.families[f"{path}#{i + 1}"] = {frozenset(s) for s in family}
        if tiny:
            want = [list(range(p.min_size + 1))]
            if out["tiny_family"] != want:
                self.errors.append(f"{path} on the one-clique graph returned {out['tiny_family']}")
        return out

    def run_job(self, daemon: Daemon, label: str) -> dict | None:
        """Submit one job and wait until it is terminal; its document, or None."""
        p = self.params
        spec = {
            "gamma": p.gamma, "min_size": p.min_size,
            "graph_path": self.graph_path, "engine": self.workload.engine_payload(),
            "label": label,
        }
        status, doc = daemon.request("POST", "/jobs", spec)
        if status != 201:
            self.ledger.add("job", 1, 1)
            self.errors.append(f"job {label}: POST /jobs answered {status} {doc}")
            return None
        while doc["state"] not in ("completed", "failed", "cancelled"):
            time.sleep(0.1)
            status, doc = daemon.request("GET", f"/jobs/{doc['id']}")
        if doc["state"] != "completed":
            self.ledger.add("job", 1, 1)
            self.errors.append(f"job {doc['id']} ended {doc['state']}: {doc.get('error')}")
            return None
        self.ledger.add("job", 1)
        status, listing = daemon.request("GET", f"/results/{doc['id']}/communities")
        self.families[f"service {doc['id']}"] = {frozenset(c) for c in listing["communities"]}
        return doc

    def reference(self) -> set[frozenset[int]] | None:
        """The first family mined; every other path must return the same."""
        return next(iter(self.families.values()), None)

    def check_answers(self, phase: str, result) -> None:
        """Every HTTP answer must equal the benchmark's own filter."""
        reference = self.reference()
        answers = []
        for s in result.samples:
            if s.body is not None:
                answers.append((s.query[0], s.query[1], json.loads(s.body)["communities"]))
        if reference is not None:
            self.errors.extend(
                f"{phase}: {e}" for e in self.checker.answer_errors(reference, answers)[:5]
            )
        self.ledger.add(phase, result.attempted, result.failed)

    def query_phase(self, daemon: Daemon, job_id: str, phase: str, rate: float,
                    duration: float | None = None, stop: threading.Event | None = None):
        """Open-loop queries at `rate`; rate 0 means the sequential closed loop."""
        from loadgen import OpenLoop
        from workloads import QueryMix

        loop = OpenLoop("127.0.0.1", daemon.port, worker_count(), spans=self.spans)
        mix = QueryMix(self.instance, phase)
        if rate == 0:
            result = loop.sequential(job_id, mix, duration, span_name=f"http.{phase}")
        else:
            result = loop.run(job_id, mix, rate, duration=duration, stop=stop,
                              span_name=f"http.{phase}")
        self.check_answers(phase, result)
        return result

    def sequential_queries(self, daemon: Daemon, job_id: str):
        """The idle daemon, one keep-alive connection, closed loop."""
        return self.query_phase(daemon, job_id, "sequential", 0, duration=0.075 * self.seconds)

    def ladder(self, daemon: Daemon, job_id: str) -> tuple[float, list[str]]:
        """Highest achieved rate on the ladder that meets the p99 limit."""
        from workloads import LATENCY_LIMIT_MS, RATE_LADDER

        best = 0.0
        notes = []
        for i, rate in enumerate(RATE_LADDER):
            r = self.query_phase(daemon, job_id, f"ladder{i}", rate,
                                 duration=0.0375 * self.seconds)
            p99 = r.latency_ms(99)
            passed = (r.failed == 0 and p99 <= LATENCY_LIMIT_MS
                      and r.backlog_at_end <= max(1, 0.01 * r.attempted))
            notes.append(f"{rate:g}/s p99={p99:.1f}ms backlog={r.backlog_at_end}"
                         f"{'' if passed else ' FAIL'}")
            if not passed:
                break
            best = r.throughput
        return best, notes

    def busy_phase(self, daemon: Daemon, job_id: str) -> tuple[list[float], list[float]]:
        """Fixed-rate queries on `job_id` while further jobs mine, one at a time.

        Returns the query latencies and the jobs' times (s).
        """
        from workloads import BUSY_RATE

        latencies: list[float] = []
        job_times: list[float] = []
        for n in range(self.workload.busy_jobs):
            stop = threading.Event()
            box: dict = {}

            def background() -> None:
                try:
                    box["doc"] = self.run_job(daemon, f"busy{n}")
                finally:
                    stop.set()

            miner = threading.Thread(target=background)
            miner.start()
            result = self.query_phase(daemon, job_id, f"busy{n}", BUSY_RATE, stop=stop)
            miner.join()
            if box.get("doc") is not None:
                doc = box["doc"]
                job_times.append(job_seconds(doc))
                # The job's end on this process's clock (the daemon stamps wall time).
                done = doc["finished"] - (time.time() - time.perf_counter())
                latencies += [s.latency for s in result.samples if s.due < done]
        return latencies, job_times

    def check_families(self) -> None:
        from checker import same_family_errors

        reference = self.reference()
        if reference is None:
            self.errors.append("no mining path returned a family")
            return
        self.errors.extend(self.checker.family_errors(reference)[:10])
        self.errors.extend(same_family_errors(self.families))

    def report(self, metrics: dict, units: dict) -> dict:
        for phase, (attempted, failed) in self.ledger.rows.items():
            print(f"phase {phase}: attempted={attempted} failed={failed}")
        for error in self.errors:
            print(f"CHECK FAILED: {error}", file=sys.stderr)
        return {
            "correct": not self.errors,
            "attempted": self.ledger.attempted,
            "failed": self.ledger.failed,
            "metrics": {
                name: {"value": metrics[name], "unit": units[name]} for name in units
            },
        }

    # -- the end-to-end run ----------------------------------------------------

    def end_to_end(self) -> dict:
        from loadgen import percentile

        w = self.workload
        setup, daemon = self.setup()
        serial = self.mine_path("serial", w.serial_repeats)
        pool = self.mine_path("pool", w.pool_repeats)
        cluster = self.mine_path("cluster", w.cluster_repeats)
        first_job = self.run_job(daemon, "queried")

        seq = ladder_best = None
        busy: list[float] = []
        if first_job is not None:
            seq = self.sequential_queries(daemon, first_job["id"])
            ladder_best, notes = self.ladder(daemon, first_job["id"])
            print("ladder: " + "; ".join(notes))
            busy, busy_times = self.busy_phase(daemon, first_job["id"])
            # Printed, not reported: job times vary from run to run
            # beyond any bound (see README.md).
            print(f"job times (s): queried {job_seconds(first_job):.3f}, busy "
                  + " ".join(f"{t:.3f}" for t in busy_times))
        self.check_families()
        daemon_rss = daemon.peak_rss_mb()
        self.stop_daemons()
        children_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

        def median_time(out: dict | None) -> float:
            return statistics.median(out["times"]) if out else math.nan

        metrics = {
            "setup_s": statistics.median(setup),
            "mine_s": median_time(serial),
            "pool_mine_s": median_time(pool),
            "cluster_mine_s": median_time(cluster),
            "seq_query_p50_ms": seq.latency_ms(50) if seq else math.nan,
            "query_max_rps": ladder_best if ladder_best is not None else math.nan,
            "busy_query_p50_ms": percentile(busy, 50) * 1000 if busy else math.nan,
            "peak_rss_mb": max(children_rss, daemon_rss),
        }
        if busy:
            # Printed, not reported: the tail follows the shared host's
            # scheduling noise more than the program (see README.md).
            print(f"queries: sequential {seq.attempted}, "
                  f"busy {len(busy)} (p90 {percentile(busy, 90) * 1000:.2f} ms)")
        return self.report(metrics, END_TO_END)

    # -- the traced run --------------------------------------------------------

    def per_layer(self) -> dict:
        """Walk the layers in process with spans; fold in the program's counters."""
        from loadgen import percentile
        from repro.core.miner import mine_root
        from repro.core.options import DEFAULT_OPTIONS, MiningJob, MiningStats, ResultSink
        from repro.core.postprocess import postprocess_results
        from repro.core.quasiclique import kcore_threshold
        from repro.graph.io import read_edge_list
        from repro.graph.kcore import k_core
        from repro.graph.subgraph import candidate_extension, spawn_subgraph
        from repro.gthinker import EngineConfig, Tracer, mine_parallel
        from repro.service.runner import run_checkpointed
        from repro.service.store import ResultStore
        from workloads import IDLE_RATE

        spans = self.spans
        p = self.params
        m: dict[str, float] = {}
        with spans.span("graph.read_edge_list"):
            graph = read_edge_list(self.graph_path)
        m["graph.read_s"] = spans.total("graph.read_edge_list")

        # repro.graph + repro.core: the bare serial miner, one call at a time.
        k = kcore_threshold(p.gamma, p.min_size)
        sink, stats = ResultSink(), MiningStats()
        roots = spawn_vertices = 0
        with spans.span("graph.k_core"):
            base = k_core(graph, k)
        for root in sorted(base.vertices()):
            with spans.span("graph.spawn_subgraph", root=root):
                sub = spawn_subgraph(base, root, k)
            roots += 1
            spawn_vertices += sub.num_vertices
            if root not in sub:
                continue
            with spans.span("graph.candidate_extension", root=root):
                ext = candidate_extension(sub, root)
            job = MiningJob(graph=sub, gamma=p.gamma, min_size=p.min_size, sink=sink,
                            options=DEFAULT_OPTIONS, stats=stats)
            with spans.span("core.mine_root", root=root):
                mine_root(job, root, ext)
        candidates = sink.results()
        with spans.span("core.postprocess_results"):
            kernel_family = postprocess_results(candidates)
        self.families["kernel"] = kernel_family
        spawn_s = spans.total("graph.spawn_subgraph") + spans.total("graph.candidate_extension")
        m.update({
            "graph.kcore_s": spans.total("graph.k_core"),
            "graph.spawn_s": spawn_s,
            "graph.roots": roots,
            "graph.spawn_vertices": spawn_vertices,
            "core.kernel_s": spans.total("core.mine_root"),
            "core.postprocess_s": spans.total("core.postprocess_results"),
            "core.nodes_expanded": stats.nodes_expanded,
            "core.bounding_rounds": stats.bounding_rounds,
            "core.mining_ops": stats.mining_ops,
            "core.candidates": len(candidates),
            "core.candidate_yield": len(kernel_family) / max(1, len(candidates)),
        })

        # repro.gthinker engine: the serial engine untraced, then traced.
        config = EngineConfig(tau_split=p.tau_split, tau_time=p.tau_time_ops, time_unit="ops")
        t0 = time.perf_counter()
        plain = mine_parallel(graph, p.gamma, p.min_size, config)
        untraced_s = time.perf_counter() - t0
        self.families["serial#1"] = plain.maximal
        with spans.span("gthinker.mine_parallel", backend="serial"):
            traced = mine_parallel(graph, p.gamma, p.min_size, config,
                                   tracer=Tracer(capacity=1_000_000))
        self.families["serial traced"] = traced.maximal
        em = traced.metrics
        m.update({
            "engine.overhead_s": untraced_s - (m["graph.kcore_s"] + spawn_s
                                               + m["core.kernel_s"] + m["core.postprocess_s"]),
            "engine.materialize_s": em.total_materialize_seconds,
            "engine.tasks_spawned": em.tasks_spawned,
            "engine.tasks_executed": em.tasks_executed,
            "engine.tasks_decomposed": em.tasks_decomposed,
            "engine.subtasks_created": em.subtasks_created,
            "trace.overhead": spans.total("gthinker.mine_parallel") / untraced_s,
        })

        # Pool and cluster: fresh processes, as in the end-to-end run.
        with spans.span("gthinker.mine_parallel", backend="process"):
            pool = self.mine_path("pool", 1, tiny=True)
        with spans.span("gthinker.mine_parallel", backend="cluster"):
            cluster = self.mine_path("cluster", 1, tiny=True, trace=True)
        for prefix, out in (("pool", pool), ("cluster", cluster)):
            timing = out["metrics"]["timing"].values() if out else []
            busy = [t["mine_seconds"] for t in timing]
            m[f"{prefix}.startup_s"] = out["tiny_s"] if out else math.nan
            m[f"{prefix}.worker_busy_s"] = sum(busy) if busy else math.nan
            m[f"{prefix}.worker_idle_s"] = (
                sum(t["idle_seconds"] for t in timing) if busy else math.nan
            )
            m[f"rss.{prefix}_worker_mb"] = out["rss_children_mb"] if out else math.nan
        pool_busy = [t["mine_seconds"] for t in pool["metrics"]["timing"].values()] if pool else []
        m["pool.busy_imbalance"] = (
            max(pool_busy) / statistics.mean(pool_busy) if pool_busy else math.nan
        )
        m["pool.speedup"] = untraced_s / pool["times"][0] if pool else math.nan
        cm = cluster["metrics"] if cluster else {}
        lookups = cm.get("remote_vertex_hits", 0) + cm.get("remote_vertex_misses", 0)
        m.update({
            "cluster.result_batches": cluster["result_fold_spans"] if cluster else math.nan,
            "cluster.remote_messages": cm.get("remote_messages", math.nan),
            "cluster.vertex_misses": cm.get("remote_vertex_misses", math.nan),
            "cluster.vertex_hit_ratio": cm.get("remote_vertex_hits", 0) / lookups if lookups else 0.0,
        })

        # repro.service: the runner in process, then one daemon job and queries.
        with spans.span("service.run_checkpointed"):
            outcome = run_checkpointed(graph, p.gamma, p.min_size, config,
                                       work_dir=os.path.join(self.work, "runner"))
        self.families["runner"] = outcome.maximal
        m["service.runner_s"] = spans.total("service.run_checkpointed")
        daemon = self.start_daemon()
        doc = self.run_job(daemon, "job0")
        self.check_families()
        if doc is None:
            self.stop_daemons()
            return self.report({**m, **{k: math.nan for k in PER_LAYER if k not in m}}, PER_LAYER)
        job_id = doc["id"]
        m["service.job_wait_s"] = doc["started"] - doc["submitted"]
        m["service.job_run_s"] = doc["finished"] - doc["started"]
        with spans.span("phase.idle_queries"):
            idle = self.query_phase(daemon, job_id, "idle", IDLE_RATE,
                                    duration=0.15 * self.seconds)
            seq = self.sequential_queries(daemon, job_id)
        # Printed, not reported: see README.md.
        print(f"queries: idle {idle.attempted} at {IDLE_RATE:g} req/s, p50 "
              f"{idle.latency_ms(50):.2f} ms, p99 {idle.latency_ms(99):.2f} ms")
        store_counters = daemon.request("GET", "/metricsz")[1]["service"]["store"]
        m["store.cache_hits"] = store_counters["cache_hits"]
        m["store.cache_misses"] = store_counters["cache_misses"]
        m["rss.daemon_mb"] = daemon.peak_rss_mb()
        self.stop_daemons()

        # The store in process, replaying the sequential phase's queries.
        store = ResultStore(daemon.jobs_dir)
        with spans.span("store.index"):
            store.index(job_id)
        m["store.index_load_s"] = spans.total("store.index")
        replay = [s.query for s in seq.samples]
        hits, misses, every = [], [], []
        for vertices, top in replay + replay[-200:]:
            t0 = time.perf_counter()
            _, cache_hit = store.communities(job_id, vertices, top)
            dt = time.perf_counter() - t0
            spans.add("store.communities", t0, t0 + dt, hit=cache_hit)
            (hits if cache_hit else misses).append(dt)
            if len(every) < len(replay):
                every.append(dt)
        m["store.hit_us"] = statistics.median(hits) * 1e6 if hits else math.nan
        m["store.miss_us"] = statistics.median(misses) * 1e6 if misses else math.nan
        m["server.overhead_ms"] = seq.latency_ms(50) - statistics.median(every) * 1e3
        m["loadgen.lateness_ms"] = percentile([s.lateness for s in idle.samples], 99) * 1e3
        return self.report(m, PER_LAYER)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: the program's sources are not at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from spans import Spans
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    def on_term(signum, frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, on_term)
    out_dir = os.path.join(HERE, "work")
    os.makedirs(out_dir, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-s{args.seed}-", dir=out_dir)
    spans = Spans() if args.trace else None
    run = None
    try:
        run = Run(WORKLOADS[args.workload], args.seed, args.seconds, work, spans)
        result = run.per_layer() if args.trace else run.end_to_end()
    finally:
        if run is not None:
            run.stop_daemons()
        shutil.rmtree(work, ignore_errors=True)
        if spans is not None:
            spans.dump(os.path.join(out_dir, f"trace-{args.workload}-s{args.seed}.jsonl"))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
