"""Output checks that share no code with the program.

The checker reads the edge-list file itself and decides every property
with its own γ-quasi-clique predicate, so a fault in the program's
graph, predicate or postprocessing code cannot hide its own symptoms.
What it checks about a mined family:

* every set is a γ-quasi-clique with at least τ_size vertices;
* no set contains another;
* no set stays a γ-quasi-clique when one more vertex is added;
* every planted core that is a γ-quasi-clique of at least τ_size
  vertices lies inside some set;

and about the service, that every community answer equals the
benchmark's own filter ``{S : Q ⊆ S}``, sorted by size descending with
lexicographic ties, cut to the top k.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

Family = set[frozenset[int]]


def adjacency(edges: Iterable[tuple[int, int]]) -> dict[int, set[int]]:
    adj: dict[int, set[int]] = {}
    for u, v in edges:
        if u != v:
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
    return adj


def read_adjacency(path: str) -> dict[int, set[int]]:
    """The edge-list file as adjacency sets; ``#`` starts a comment line."""
    with open(path) as f:
        rows = [line.split() for line in f]
    return adjacency((int(r[0]), int(r[1])) for r in rows if r and not r[0].startswith("#"))


class Checker:
    """Checks mined families and query answers against one graph."""

    def __init__(self, adj: dict[int, set[int]], gamma: float, min_size: int,
                 planted: Iterable[frozenset[int]] = ()):
        self.adj = adj
        self.gamma = gamma
        self.min_size = min_size
        self.planted = [frozenset(p) for p in planted]

    def degree_floor(self, size: int) -> int:
        # ceil(γ·(size−1)) with a guard against float error (0.9·10 = 9.000…01).
        return math.ceil(self.gamma * (size - 1) - 1e-9)

    def is_quasi_clique(self, members: frozenset[int]) -> bool:
        if not members or any(v not in self.adj for v in members):
            return False
        floor = self.degree_floor(len(members))
        if any(len(self.adj[v] & members) < floor for v in members):
            return False
        start = next(iter(members))
        seen = {start}
        frontier = [start]
        while frontier:
            v = frontier.pop()
            for u in self.adj[v] & members:
                if u not in seen:
                    seen.add(u)
                    frontier.append(u)
        return len(seen) == len(members)

    def family_errors(self, family: Family) -> list[str]:
        """Every reason `family` is not the maximal γ-quasi-clique family."""
        errors: list[str] = []
        for s in sorted(family, key=sorted):
            label = _label(s)
            if len(s) < self.min_size:
                errors.append(f"{label}: {len(s)} vertices < τ_size {self.min_size}")
            if not self.is_quasi_clique(s):
                errors.append(f"{label}: not a {self.gamma}-quasi-clique")
                continue
            outside = set().union(*(self.adj[v] for v in s)) - s
            for v in sorted(outside):
                if self.is_quasi_clique(s | {v}):
                    errors.append(f"{label}: still a quasi-clique with {v} added")
                    break
        by_size = sorted(family, key=len)
        for i, small in enumerate(by_size):
            for big in by_size[i + 1:]:
                if small < big:
                    errors.append(f"{_label(small)} lies inside {_label(big)}")
        for core in self.planted:
            if len(core) >= self.min_size and self.is_quasi_clique(core):
                if not any(core <= s for s in family):
                    errors.append(f"planted core {_label(core)} lies in no reported set")
        return errors

    @staticmethod
    def expected_answer(family: Family, query: Iterable[int],
                        top: int | None) -> list[list[int]]:
        """The benchmark's own ``{S : Q ⊆ S}``, largest first, top k."""
        q = set(query)
        found = sorted((sorted(s) for s in family if q <= s), key=lambda s: (-len(s), s))
        return found if top is None else found[: max(top, 0)]

    def answer_errors(self, family: Family,
                      answers: Iterable[tuple[tuple[int, ...], int | None, list]]) -> list[str]:
        """Mismatches among ``(query, top, communities)`` HTTP answers."""
        errors = []
        for query, top, got in answers:
            want = self.expected_answer(family, query, top)
            if got != want:
                errors.append(f"query {list(query)} top={top}: got {got}, want {want}")
        return errors


def same_family_errors(families: dict[str, Family]) -> list[str]:
    """Every path must return the same family as the first one listed."""
    names = list(families)
    errors = []
    for name in names[1:]:
        if families[name] != families[names[0]]:
            only_a = len(families[names[0]] - families[name])
            only_b = len(families[name] - families[names[0]])
            errors.append(
                f"{name} differs from {names[0]}: {only_b} sets only in "
                f"{name}, {only_a} only in {names[0]}"
            )
    return errors


def _label(s: frozenset[int]) -> str:
    items = sorted(s)
    shown = " ".join(map(str, items[:6]))
    return f"{{{shown}{' …' if len(items) > 6 else ''}}}({len(items)})"
