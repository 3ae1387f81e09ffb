#!/usr/bin/env python3
"""A/A stability check: does the benchmark agree with itself?

    python3 e2ebench/stability.py --workload serve --runs 10

Runs ``run.py`` on one workload in two sets of ``runs`` runs of the same
code, seeds ``1..runs`` and ``runs+1..2*runs``.  For every end-to-end
metric it prints each set's median and quartile spread (interquartile
distance as a share of the median) against the metric's bound in
``BENCHMARK.json``, then compares the sets' medians:

* a spread wider than the bound is **unresolved** - the benchmark cannot
  tell a change of that size from noise, so it never reads "unchanged";
* otherwise two medians that differ, in the worse direction, by more
  than the bound **differ**, and by less are **unchanged**.

``--overhead N`` adds traced runs on the first set's first ``N`` seeds
and reports the tracing overhead as traced minus untraced ``op_p50_ms``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))

from e2ebench.stats import summarize  # noqa: E402


def run_once(workload: str, seed: int, seconds: float, trace: int) -> Dict:
    """One benchmark run in a fresh interpreter; returns its result line."""
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=600,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def verdict(spreads: List[float], change: float, bound: float) -> str:
    if max(spreads) > bound:
        return "unresolved"
    return "differs" if change > bound else "unchanged"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10, help="runs per set")
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--overhead", type=int, default=0, metavar="N",
                        help="also trace the first N seeds of the first set")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    metrics = spec["end_to_end"]
    sets: List[List[Dict]] = []
    failed = 0
    for index in range(2):
        results = []
        for run in range(args.runs):
            seed = 1 + index * args.runs + run
            result = run_once(args.workload, seed, seconds, 0)
            failed += result["failed"]
            results.append(result)
            print(f"set {index + 1} seed {seed}: " + " ".join(
                f"{name}={value['value']:.6g}"
                for name, value in result["metrics"].items()), flush=True)
        sets.append(results)

    print(f"\n{args.workload}: 2 sets x {args.runs} runs of "
          f"{seconds:g} s, failed steps {failed}")
    print(f"{'metric':<14}{'bound':>7}  " + "".join(
        f"{'set ' + str(i + 1) + ' median':>16}{'spread':>8}" for i in range(2))
        + f"{'change':>9}  verdict")
    unresolved = 0
    for metric in metrics:
        name, bound = metric["name"], metric["bound"]
        summaries = [
            summarize([result["metrics"][name]["value"] for result in results])
            for results in sets
        ]
        row = f"{name:<14}{bound:>7.2f}  " + "".join(
            f"{s['median']:>16.6g}{s['spread']:>8.3f}" for s in summaries)
        first, second = summaries[0]["median"], summaries[1]["median"]
        sign = 1 if metric["better"] == "lower" else -1
        change = sign * (second - first) / first
        word = verdict([s["spread"] for s in summaries], change, bound)
        row += f"{change:>+9.3f}  {word}"
        unresolved += word in ("unresolved", "differs")
        print(row)

    if args.overhead:
        deltas = []
        for seed, untraced in zip(range(1, args.overhead + 1), sets[0]):
            traced = run_once(args.workload, seed, seconds, 1)
            deltas.append(traced["metrics"]["trace.op_p50_ms"]["value"]
                          - untraced["metrics"]["op_p50_ms"]["value"])
        print(f"tracing overhead (traced - untraced op_p50_ms, median of "
              f"{len(deltas)} seeds): {statistics.median(deltas):+.4g} ms")
    return 1 if unresolved or failed else 0


if __name__ == "__main__":
    sys.exit(main())
