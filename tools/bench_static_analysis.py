#!/usr/bin/env python3
"""Benchmark the static-analysis stack over ``src/repro``.

Times each layer end to end — keylint (AST hygiene lint), KeyFlow
(interprocedural taint) and KeyRecon (fragment reconstructability)
together, KeyState (interprocedural typestate), KeyCount (quantitative
copy bounds), KeySpan (symbolic exposure windows) and the combined
``analyze`` meta-runner (all six over one shared IR build) — and
writes
``BENCH_static_analysis.json`` at the repo root so the
analysis-performance trajectory is tracked alongside the simulation
benchmarks.  Each entry records per-layer wall time (best and mean)
plus the finding count, so a perf regression and a precision
regression are both visible in one diff.

KeyFlow and KeyRecon are projections of one key-material fixpoint
(:mod:`repro.analysis.ir.dataflow`), so they share the
``keyflow+keyrecon`` row: both reports from one IR build, the way
``repro analyze`` runs them.  Timing either alone would time the same
fixpoint twice.

Usage::

    python tools/bench_static_analysis.py                  # 3 repetitions
    python tools/bench_static_analysis.py --repeat 5
    python tools/bench_static_analysis.py --out custom.json
    python tools/bench_static_analysis.py --check-regression

``--check-regression`` re-times the stack and compares each layer's
best time against the committed baseline JSON: more than 20% slower
(beyond a small absolute noise floor) exits 1.  CI runs this after the
functional gates.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

DEFAULT_OUT = REPO_ROOT / "BENCH_static_analysis.json"
TARGET = SRC / "repro"

#: A layer regresses when ``best > baseline * RATIO + FLOOR_SECONDS``.
#: The floor absorbs scheduler noise on sub-second layers; the ratio
#: is the 20% budget the CI gate enforces.
REGRESSION_RATIO = 1.2
FLOOR_SECONDS = 0.15


def _bench(label, fn, repeat):
    """Run ``fn`` ``repeat`` times; return timing stats + its summary."""
    times = []
    summary = {}
    for _ in range(repeat):
        start = time.perf_counter()
        summary = fn()
        times.append(time.perf_counter() - start)
    return {
        "tool": label,
        "repetitions": repeat,
        "best_seconds": round(min(times), 4),
        "mean_seconds": round(sum(times) / len(times), 4),
        **summary,
    }


def _run_keylint():
    from repro.analysis.lint import lint_paths

    violations = lint_paths([TARGET])
    return {"findings": len(violations)}


def _run_keyflow_keyrecon():
    from repro.analysis.runall import run_all

    result = run_all(paths=[TARGET], layers=("keyflow", "keyrecon"))
    keyflow, keyrecon = result.reports["keyflow"], result.reports["keyrecon"]
    return {
        "findings": len(keyflow.findings) + len(keyrecon.findings),
        "files": len(result.files),
        "functions": result.function_count,
        "leak_set": len(keyflow.leak_set),
        "reconstructible": len(keyrecon.reconstructible_set),
    }


def _run_keystate():
    from repro.analysis.keystate import analyze

    report = analyze(paths=[TARGET])
    return {
        "findings": len(report.findings),
        "files": len(report.files),
        "functions": report.function_count,
        "protocols": report.protocols,
    }


def _run_keycount():
    from repro.analysis.keycount import analyze

    report = analyze(paths=[TARGET])
    return {
        "findings": len(report.findings),
        "files": len(report.files),
        "functions": report.function_count,
        "integrated_total_bound": report.evaluate_total("INTEGRATED", 1),
    }


def _run_keyspan():
    from repro.analysis.keyspan import analyze

    report = analyze(paths=[TARGET])
    worst = report.worst_transient("INTEGRATED")
    return {
        "findings": len(report.findings),
        "files": len(report.files),
        "functions": report.function_count,
        "integrated_worst_window": (
            None if worst is None else worst.evaluate(1)
        ),
    }


def _run_analyze():
    from repro.analysis.runall import run_all

    result = run_all(paths=[TARGET])
    return {
        "findings": len(result.violations)
        + sum(len(r.findings) for r in result.reports.values()),
        "files": len(result.files),
        "functions": result.function_count,
    }


RUNS = [
    ("keylint", _run_keylint),
    ("keyflow+keyrecon", _run_keyflow_keyrecon),
    ("keystate", _run_keystate),
    ("keycount", _run_keycount),
    ("keyspan", _run_keyspan),
    ("analyze", _run_analyze),
]


def _time_stack(repeat):
    results = []
    for label, fn in RUNS:
        entry = _bench(label, fn, repeat)
        results.append(entry)
        print(
            f"{label:16s} best {entry['best_seconds']:7.3f}s  "
            f"mean {entry['mean_seconds']:7.3f}s  "
            f"findings {entry['findings']}",
        )
    return results


def check_regression(results, baseline_payload):
    """Compare fresh timings against the committed baseline; return a
    list of human-readable failures (empty = pass)."""
    committed = {
        entry["tool"]: entry for entry in baseline_payload.get("results", [])
    }
    failures = []
    for entry in results:
        base = committed.get(entry["tool"])
        if base is None:
            continue  # new layer: no baseline yet, nothing to regress
        budget = base["best_seconds"] * REGRESSION_RATIO + FLOOR_SECONDS
        if entry["best_seconds"] > budget:
            failures.append(
                f"{entry['tool']}: best {entry['best_seconds']:.3f}s exceeds "
                f"budget {budget:.3f}s "
                f"(baseline {base['best_seconds']:.3f}s × {REGRESSION_RATIO} "
                f"+ {FLOOR_SECONDS}s floor)"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench_static_analysis",
        description="time keylint / KeyFlow+KeyRecon / KeyState / "
                    "KeyCount / KeySpan / analyze over src/repro",
    )
    parser.add_argument(
        "--repeat", type=int, default=3,
        help="repetitions per tool; best and mean are reported (default: 3)",
    )
    parser.add_argument(
        "--out", type=Path, default=DEFAULT_OUT,
        help=f"output JSON path (default: {DEFAULT_OUT.name})",
    )
    parser.add_argument(
        "--check-regression", action="store_true",
        help="compare timings against the committed baseline instead of "
             "rewriting it; exit 1 on a >20%% per-layer slowdown",
    )
    args = parser.parse_args(argv)

    results = _time_stack(args.repeat)

    if args.check_regression:
        if not DEFAULT_OUT.exists():
            print(f"no committed baseline at {DEFAULT_OUT}", file=sys.stderr)
            return 2
        baseline_payload = json.loads(DEFAULT_OUT.read_text(encoding="utf-8"))
        failures = check_regression(results, baseline_payload)
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        if failures:
            return 1
        print("runtime gate: within budget", file=sys.stderr)
        return 0

    payload = {
        "benchmark": "static_analysis",
        "target": str(TARGET.relative_to(REPO_ROOT)),
        "python": sys.version.split()[0],
        "results": results,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
