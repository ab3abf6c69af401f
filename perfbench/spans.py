"""In-memory spans recorded by the benchmark around calls into each layer.

A span is ``(id, parent, name, start, end, attrs)`` on the
``time.perf_counter`` clock. Spans nest per thread: a span opened while
another is open on the same thread becomes its child. Nothing is written
until :meth:`Spans.dump`, which the benchmark calls once the run ends.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from typing import Iterator


class Spans:
    def __init__(self) -> None:
        self.records: list[tuple[int, int | None, str, float, float, dict]] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[None]:
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.records.append((span_id, parent, name, start, end, attrs))

    def add(self, name: str, start: float, end: float, **attrs) -> None:
        """Record a span measured by the caller, under the thread's open span."""
        stack = self._stack()
        with self._lock:
            self.records.append(
                (next(self._ids), stack[-1] if stack else None, name, start, end, attrs)
            )

    def total(self, name: str) -> float:
        with self._lock:
            return sum(end - start for _, _, n, start, end, _ in self.records if n == name)

    def dump(self, path: str) -> None:
        with self._lock:
            records = sorted(self.records, key=lambda r: r[3])
        with open(path, "w") as f:
            for span_id, parent, name, start, end, attrs in records:
                f.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name,
                    "start": start, "end": end, **attrs,
                }) + "\n")
