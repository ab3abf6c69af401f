"""Steadiness check: repeat the benchmark and compare each spread with its bound.

    python3 perfbench/steady.py --runs 10 --out perfbench/work/set1.json
    python3 perfbench/steady.py --load perfbench/work/set1.json

Runs every workload ``--runs`` times, one seed per round (``--first-seed``,
then the next integers), alternating the workload order between rounds.
For each end-to-end metric it prints the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``), the spread
``(q3 − q1) / median`` and the metric's bound from ``BENCHMARK.json``,
plus each workload's share of failed operations. A spread above its
bound, or a value that is not a finite number, fails the check (exit 1).
``--load`` prints the table for runs saved earlier with ``--out``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def table(runs: dict[str, list[dict]], spec: dict) -> bool:
    """Print one block per workload; True when every spread is within its bound."""
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for workload, results in runs.items():
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"\n{workload}: {len(results)} runs, failed share(s) {sorted(shares)}")
        print(f"  {'metric':20s} {'unit':6s} {'median':>10s} {'q1':>10s} {'q3':>10s}"
              f" {'spread':>7s} {'bound':>6s}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            if not all(math.isfinite(v) for v in values):
                print(f"  {name:20s} {unit:6s} not a finite number in every run: {values}")
                steady = False
                continue
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            flag = ""
            if spread > bound:
                flag, steady = "  OVER", False
            elif spread > bound / 3:
                flag = "  >1/3"
            print(f"  {name:20s} {unit:6s} {median:10.4g} {q1:10.4g} {q3:10.4g}"
                  f" {spread:7.3f} {bound:6.2f}{flag}")
    return steady


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", default=None, help="save the raw results as JSON")
    parser.add_argument("--load", default=None, help="print saved results instead of running")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.load:
        with open(args.load) as f:
            runs = json.load(f)
    else:
        names = [w["name"] for w in spec["workloads"]]
        runs = {name: [] for name in names}
        for i in range(args.runs):
            seed = args.first_seed + i
            for name in (names if i % 2 == 0 else names[::-1]):
                result = run_once(name, seed, spec["run_seconds"])
                if not result["correct"]:
                    raise SystemExit(f"{name} seed {seed}: a correctness check failed")
                runs[name].append(result)
                summary = ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
                print(f"{name} seed={seed}: {summary}", flush=True)
        if args.out:
            with open(args.out, "w") as f:
                json.dump(runs, f, indent=1)
    return 0 if table(runs, spec) else 1


if __name__ == "__main__":
    sys.exit(main())
