"""Query load over a small pool of keep-alive HTTP connections.

:meth:`OpenLoop.run` is an open loop: request i is due at
``start + i/rate``, whatever the daemon does. A due request goes to the
connection that has been idle longest, so load spreads round-robin over
the pool; when every connection is busy it waits in a FIFO backlog and
the next connection to free up takes it. Latency runs from the due
time, so waits behind a slow answer are charged to the daemon;
*lateness* is how long the generator took to send once the request was
due and a connection was free.

:meth:`OpenLoop.sequential` is a closed loop on one connection: each
query is sent as soon as the previous answer has arrived, as a client
paging through results does.

Connections are HTTP/1.1 keep-alive and never pipelined: one request in
flight per connection.
"""

from __future__ import annotations

import collections
import http.client
import math
import queue
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from urllib.parse import urlencode

Query = tuple[tuple[int, ...], int]


@dataclass
class Sample:
    query: Query
    due: float
    done: float
    lateness: float
    body: bytes | None  # None when the request failed

    @property
    def latency(self) -> float:
        return math.inf if self.body is None else self.done - self.due


@dataclass
class PhaseResult:
    samples: list[Sample] = field(default_factory=list)
    #: Requests due by the end of the schedule but not yet sent then.
    backlog_at_end: int = 0
    elapsed: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.samples)

    @property
    def failed(self) -> int:
        return sum(1 for s in self.samples if s.body is None)

    def latency_ms(self, q: float) -> float:
        return percentile([s.latency for s in self.samples], q) * 1000.0

    @property
    def throughput(self) -> float:
        """Answered requests per second, from the first due time to the last answer."""
        answered = sum(1 for s in self.samples if s.body is not None)
        return answered / self.elapsed if self.elapsed > 0 else 0.0


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]); inf counts as the largest."""
    if not values:
        return math.nan
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def community_path(job_id: str, query: Query) -> str:
    vertices, top = query
    params = [("vertex", v) for v in vertices] + [("top", top)]
    return f"/results/{job_id}/communities?{urlencode(params)}"


class OpenLoop:
    """Drives one daemon from ``connections`` keep-alive connections."""

    def __init__(self, host: str, port: int, connections: int, spans=None):
        self.host = host
        self.port = port
        self.connections = connections
        self.spans = spans

    def _get(self, conn: http.client.HTTPConnection, job_id: str, query: Query) -> bytes | None:
        """One query on `conn`; the body, or None when it failed."""
        conn.request("GET", community_path(job_id, query))
        response = conn.getresponse()
        data = response.read()
        return data if response.status == 200 else None

    def sequential(self, job_id: str, next_query: Callable[[], Query],
                   duration: float, span_name: str = "http.sequential") -> PhaseResult:
        """Closed loop on one connection for `duration` s."""
        result = PhaseResult()
        conn = http.client.HTTPConnection(self.host, self.port, timeout=30)
        start = time.perf_counter()
        try:
            while (now := time.perf_counter()) < start + duration:
                query = next_query()
                body = None
                try:
                    body = self._get(conn, job_id, query)
                except (OSError, http.client.HTTPException):
                    conn.close()
                    conn = http.client.HTTPConnection(self.host, self.port, timeout=30)
                done = time.perf_counter()
                result.samples.append(Sample(query, now, done, 0.0, body))
                if self.spans is not None:
                    self.spans.add(span_name, now, done, vertices=list(query[0]))
        finally:
            conn.close()
        result.elapsed = time.perf_counter() - start
        return result

    def run(
        self,
        job_id: str,
        next_query: Callable[[], Query],
        rate: float,
        duration: float | None = None,
        stop: threading.Event | None = None,
        span_name: str = "http.request",
    ) -> PhaseResult:
        """Send at `rate` for `duration` s, or until `stop` is set."""
        if duration is None and stop is None:
            raise ValueError("need a duration or a stop event")
        result = PhaseResult()
        lock = threading.Lock()
        idle: collections.deque = collections.deque()  # idle longest on the left
        backlog: collections.deque = collections.deque()
        sent = [0]

        def worker(inbox: queue.SimpleQueue) -> None:
            conn = http.client.HTTPConnection(self.host, self.port, timeout=30)
            try:
                while (item := inbox.get()) is not None:
                    due, query, ready = item
                    t_sent = time.perf_counter()
                    with lock:
                        sent[0] += 1
                    body = None
                    try:
                        body = self._get(conn, job_id, query)
                    except (OSError, http.client.HTTPException):
                        conn.close()
                        conn = http.client.HTTPConnection(self.host, self.port, timeout=30)
                    done = time.perf_counter()
                    with lock:
                        result.samples.append(
                            Sample(query, due, done, t_sent - ready, body)
                        )
                        if backlog:
                            next_due, next_query_ = backlog.popleft()
                            inbox.put((next_due, next_query_, done))
                        else:
                            idle.append(inbox)
                    if self.spans is not None:
                        self.spans.add(span_name, t_sent, done, vertices=list(query[0]))
            finally:
                conn.close()

        inboxes = [queue.SimpleQueue() for _ in range(self.connections)]
        idle.extend(inboxes)
        threads = [threading.Thread(target=worker, args=(box,), daemon=True)
                   for box in inboxes]
        for t in threads:
            t.start()
        start = time.perf_counter() + 0.05
        end = start + duration if duration is not None else math.inf
        i = 0
        while True:
            due = start + i / rate
            if due >= end or (stop is not None and stop.is_set()):
                break
            query = next_query()
            now = time.perf_counter()
            if due > now:
                time.sleep(due - now)
            with lock:
                if idle:
                    idle.popleft().put((due, query, due))
                else:
                    backlog.append((due, query))
            i += 1
        if duration is not None:
            time.sleep(max(0.0, end - time.perf_counter()))
            with lock:
                result.backlog_at_end = max(0, i - sent[0])
        while True:
            with lock:
                if not backlog and len(idle) == len(inboxes):
                    break
            time.sleep(0.001)
        for box in inboxes:
            box.put(None)
        for t in threads:
            t.join()
        result.samples.sort(key=lambda s: s.due)
        if result.samples:
            result.elapsed = max(s.done for s in result.samples) - start
        return result
