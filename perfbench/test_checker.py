"""The output checker must accept correct results and reject corrupted ones.

    python3 -m pytest perfbench/test_checker.py -q
    python3 perfbench/test_checker.py
"""

from __future__ import annotations

import itertools
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from checker import Checker, adjacency, same_family_errors  # noqa: E402

# Two cliques K6 = {0..5} and K7 = {10..16}, bridged by one edge 5–10,
# plus a pendant path. At γ=0.9, τ_size=5 the maximal family is exactly
# the two cliques.
K6 = frozenset(range(0, 6))
K7 = frozenset(range(10, 17))


def small_checker() -> Checker:
    edges = [*itertools.combinations(K6, 2), *itertools.combinations(K7, 2),
             (5, 10), (16, 20), (20, 21)]
    return Checker(adjacency(edges), gamma=0.9, min_size=5, planted=[K6, K7])


def test_accepts_the_correct_family():
    assert small_checker().family_errors({K6, K7}) == []


def test_rejects_a_dropped_vertex():
    errors = small_checker().family_errors({K6 - {3}, K7})
    assert any("still a quasi-clique" in e for e in errors), errors


def test_rejects_a_non_maximal_subset():
    errors = small_checker().family_errors({K6, K7, frozenset(range(10, 15))})
    assert any("lies inside" in e for e in errors), errors


def test_rejects_a_missing_community():
    errors = small_checker().family_errors({K6})
    assert any("lies in no reported set" in e for e in errors), errors


def test_rejects_a_set_that_is_no_quasi_clique():
    errors = small_checker().family_errors({K6, K7, frozenset({0, 1, 2, 16, 20, 21})})
    assert any("not a 0.9-quasi-clique" in e for e in errors), errors


def test_rejects_a_set_below_the_size_threshold():
    checker = small_checker()
    checker.min_size = 7
    errors = checker.family_errors({K6, K7})
    assert any("< τ_size" in e for e in errors), errors


def test_query_answers():
    checker = small_checker()
    family = {K6, K7}
    right = [
        ((5,), 3, [sorted(K6)]),
        ((), 3, [sorted(K7), sorted(K6)]),
        ((), 1, [sorted(K7)]),
        ((5, 10), None, []),
    ]
    assert checker.answer_errors(family, right) == []
    wrong = [
        ((5,), 3, []),                         # a community left out
        ((), 3, [sorted(K6), sorted(K7)]),     # smaller one first
        ((), 1, [sorted(K7), sorted(K6)]),     # not cut to the top k
        ((12,), 3, [sorted(K7)[:-1]]),         # a vertex dropped
    ]
    assert len(checker.answer_errors(family, wrong)) == len(wrong)


def test_paths_must_agree():
    assert same_family_errors({"serial": {K6, K7}, "pool": {K6, K7}}) == []
    assert len(same_family_errors({"serial": {K6, K7}, "pool": {K6}})) == 1


def test_real_workload_family():
    """The serial engine's family on the enron analog passes every check."""
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    from repro.graph.adjacency import Graph
    from repro.gthinker import EngineConfig, mine_parallel
    from workloads import WORKLOADS, build_instance

    workload = WORKLOADS["enron-spawn"]
    params = workload.spec
    instance = build_instance(workload, seed=1)
    checker = Checker(adjacency(instance.edges), params.gamma, params.min_size,
                      instance.planted)
    config = EngineConfig(**workload.engine_payload())
    family = mine_parallel(Graph.from_edges(instance.edges), params.gamma,
                           params.min_size, config).maximal
    assert checker.family_errors(family) == []
    # One corrupted copy of each kind is rejected on the real graph too.
    biggest = max(family, key=len)
    dropped = biggest - {min(biggest)}
    assert checker.family_errors((family - {biggest}) | {dropped})
    assert checker.family_errors(family | {frozenset(sorted(biggest)[:params.min_size])})
    assert checker.family_errors(family - {biggest})


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items())
             if name.startswith("test_") and callable(fn)]
    for name, fn in tests:
        fn()
        print(f"ok {name}")
    print(f"{len(tests)} passed")
