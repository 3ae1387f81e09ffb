#!/usr/bin/env python3
"""The performance ledger: every timed row of the repo and one gate.

One run writes one JSON, ``BENCH_ledger.json`` at the repo root (where
the trajectory tooling reads every ``BENCH_*.json``).  It holds a flat
``rows`` list keyed by ``name`` and the sweep-speedup block:

* **Static rows.**  keylint, KeyFlow and KeyRecon (one row: both are
  projections of one key-material fixpoint,
  :mod:`repro.analysis.ir.dataflow`), KeyState, KeyCount, KeySpan and
  the whole ``analyze`` stack, each over ``src/repro``.  Finding
  counts sit beside the time, so a perf regression and a precision
  regression show in one diff.
* **Hot loops.**  The loops the sweep and the taint audits spend their
  time in: the 256 MB sparse memory scan, a full scan of an apache
  worker pool's many key copies, incremental scans between scp
  sessions, the KeySan shadow census,
  one KeySan audit of a 16 MB machine, audits every 20 of 1,000 scp
  sessions on one such machine, 100 scp sessions without and
  with KeySan's write hook, cold per-run keygen (beside the warm
  corpus hit), 100 apache requests served by the key vault, and boot
  aging of a 32 MB machine.
* **Sweep speedup.**  The quick-scale OpenSSH n_tty sweep runs serially
  and at ``WORKERS`` workers after the key corpus is prewarmed, so
  neither side pays keygen in the timed region.  The cells must be
  byte-identical.  ``run_specs`` caps the workers at the usable cores,
  so on one core both sides run serially and the speedup reads ~1.0.

``--check-regression`` holds every row to one budget against the
committed ledger, read before this run overwrites it:
``best > baseline * 1.2 + 0.15 s`` fails.  The pool must beat serial
by ``MIN_SPEEDUP`` whenever the process may use two or more cores, and
always under ``--require-speedup``: CI's multi-core job passes it, so a
slow parallel path fails the build instead of hiding behind a
hardware check.

Usage::

    python tools/ledger.py                                        # record
    python tools/ledger.py --require-speedup --check-regression   # CI gate
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.analysis.experiments import QUICK
from repro.analysis.lint import lint_paths
from repro.analysis.parallel import (
    available_cores,
    merge_ntty,
    ntty_sweep_specs,
    prewarm_corpus,
    run_specs,
)
from repro.analysis.perfbench import SCP_FILE_SIZES, SIEGE_RESPONSE_BYTES
from repro.analysis.runall import run_all
from repro.attacks.keysearch import KeyPatternSet
from repro.attacks.scanner import MemoryScanner
from repro.core.protection import ProtectionLevel
from repro.core.simulation import Simulation, SimulationConfig
from repro.crypto import keycorpus
from repro.kernel.kernel import Kernel, KernelConfig
from repro.sanitizer.shadow import ShadowMap

DEFAULT_OUT = REPO_ROOT / "BENCH_ledger.json"
TARGET = SRC / "repro"

#: A row regresses when ``best > baseline * RATIO + FLOOR_SECONDS``.
#: The floor absorbs scheduler noise on sub-second rows.
REGRESSION_RATIO = 1.2
FLOOR_SECONDS = 0.15

#: The pool must beat serial by at least this factor wherever the
#: speedup assertion is armed.
MIN_SPEEDUP = 2.0

#: The sweep grid and keygen row's fixed parameters.
WORKERS = 4
MEMORY_MB = 32
KEY_BITS = 1024
SEED = 42


def _best_of(fn, repeat: int):
    """Best wall time of ``repeat`` calls of ``fn``, and its last result."""
    best = result = None
    for _ in range(repeat):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, result


# ----------------------------------------------------------------------
# static rows: fn() -> the row's extra fields
# ----------------------------------------------------------------------
def _keylint() -> dict:
    return {"findings": len(lint_paths([TARGET]))}


def _stack(layers=None, extra=lambda reports: {}):
    """A row running ``layers`` of ``repro analyze`` over one IR build."""
    def run() -> dict:
        result = run_all(paths=[TARGET], layers=layers)
        return {
            "findings": len(result.violations)
            + sum(len(r.findings) for r in result.reports.values()),
            "files": len(result.files),
            "functions": result.function_count,
            **extra(result.reports),
        }
    return run


def _worst_window(reports) -> dict:
    worst = reports["keyspan"].worst_transient("INTEGRATED")
    return {
        "integrated_worst_window": None if worst is None else worst.evaluate(1)
    }


STATIC_ROWS = {
    "keylint": _keylint,
    "keyflow+keyrecon": _stack(("keyflow", "keyrecon"), lambda r: {
        "leak_set": len(r["keyflow"].leak_set),
        "reconstructible": len(r["keyrecon"].reconstructible_set),
    }),
    "keystate": _stack(("keystate",), lambda r: {
        "protocols": r["keystate"].protocols,
    }),
    "keycount": _stack(("keycount",), lambda r: {
        "integrated_total_bound":
            r["keycount"].evaluate_total("INTEGRATED", 1),
    }),
    "keyspan": _stack(("keyspan",), _worst_window),
    "analyze": _stack(),
}


# ----------------------------------------------------------------------
# hot loops: fn(repeat) -> {"best_seconds": ..., extra fields}
# ----------------------------------------------------------------------
def _scan_256mb_full(repeat: int) -> dict:
    """The full sparse memory scan of a 256 MB machine."""
    kern = Kernel(KernelConfig(version=(2, 6, 10), memory_mb=256))
    proc = kern.create_process("holder")
    addr = proc.heap.malloc(256)
    proc.mm.write(addr, b"\x5a" * 256)
    scanner = MemoryScanner(kern, KeyPatternSet({
        "d": b"\x5a" * 64,
        "p": b"\x99" * 64,
        "q": b"\x77" * 64,
        "pem": b"NOT-PRESENT-PATTERN-0123456789abcdef",
    }))
    matches = scanner.scan().total

    def scan_once():
        scanner.reset_cache()
        scanner.scan()

    return {"best_seconds": _best_of(scan_once, repeat)[0], "matches": matches}


def _scan_apache_pool_16mb(repeat: int) -> dict:
    """A full scan of a 16 MB apache/none machine whose 20-worker pool
    has served 200 requests: many key copies, one rmap chain each."""
    sim = Simulation(SimulationConfig(
        server="apache", level=ProtectionLevel.NONE, memory_mb=16, seed=SEED,
    ))
    sim.start_server()
    sim.server.ensure_pool(20)
    for _ in range(200):
        sim.server.handle_request(SIEGE_RESPONSE_BYTES)
    scanner = MemoryScanner(sim.kernel, sim.patterns)
    matches = scanner.scan().total

    def scan_once():
        scanner.reset_cache()
        scanner.scan()

    return {"best_seconds": _best_of(scan_once, repeat)[0], "matches": matches}


def _shadow_census_256mb(repeat: int) -> dict:
    """The KeySan census over a 256 MB shadow map."""
    shadow = ShadowMap(256 * 1024 * 1024)
    for index in range(16):
        shadow.set_range(index * 13 * 1024 * 1024 + 5000, 2048,
                         (index % 7) + 1, index + 1)

    def census_once():
        return sum(len(shadow.runs_in(start, length))
                   for start, length in shadow.iter_tainted_chunks())

    runs = census_once()
    return {"best_seconds": _best_of(census_once, repeat)[0],
            "taint_runs": runs}


def _machine(taint: bool) -> Simulation:
    """A booted 16 MB openssh/none machine, under KeySan if ``taint``."""
    sim = Simulation(SimulationConfig(
        server="openssh", level=ProtectionLevel.NONE, memory_mb=16,
        seed=SEED, taint=taint,
    ))
    sim.start_server()
    return sim


def _taint_audit_16mb(repeat: int) -> dict:
    """One KeySan audit (census + full scan + cross-check)."""
    sim = _machine(taint=True)
    sim.cycle_connections(8)

    def audit_once():
        return sim.taint_report().cross_check(sim.scan())

    check = audit_once()
    assert check.consistent, "KeySan oracle and scanner disagree"
    return {
        "best_seconds": _best_of(audit_once, repeat)[0],
        "full_copies": sum(oracle for oracle, _ in check.counts.values()),
    }


def _taint_audit_sessions_16mb(repeat: int, sessions: int = 1000,
                               every: int = 20) -> dict:
    """KeySan audits of a 16 MB openssh/none machine, one after every
    ``every`` scp sessions: only the audits are timed, summed per
    machine.  Unlike ``taint_audit_16mb``'s re-audit of one unchanged
    machine, each audit meets the history the sessions before it left
    (closed exposure windows, tainted frames, key copies)."""
    def run():
        sim = _machine(taint=True)
        elapsed, audits = 0.0, 0
        for index in range(sessions):
            sim.server.run_connection_cycle(
                SCP_FILE_SIZES[index % len(SCP_FILE_SIZES)]
            )
            if index % every == every - 1:
                start = time.perf_counter()
                check = sim.taint_report().cross_check(sim.scan())
                elapsed += time.perf_counter() - start
                assert check.consistent, "KeySan oracle and scanner disagree"
                audits += 1
        return elapsed, audits, sim, check

    runs = [run() for _ in range(repeat)]
    _, audits, sim, check = runs[-1]
    return {
        "best_seconds": min(elapsed for elapsed, _, _, _ in runs),
        "audits": audits,
        "closed_windows": len(sim.keysan.closed_exposures),
        "tainted_frames": sum(1 for _ in sim.keysan.shadow.iter_tainted_chunks()),
        "full_copies": sum(oracle for oracle, _ in check.counts.values()),
    }


def _scan_incremental_16mb(repeat: int, scans: int = 20) -> dict:
    """Incremental scans of a 16 MB openssh/none machine holding 20
    connections, with 20 scp sessions before each (e2ebench ``serve``'s
    read interval); only the scans are timed, summed per machine."""
    def run():
        sim = _machine(taint=False)
        sim.server.set_concurrency(20)
        sim.scan(incremental=True)  # primes the cache
        elapsed, scanned = 0.0, 0
        for index in range(scans * 20):
            sim.server.run_connection_cycle(
                SCP_FILE_SIZES[index % len(SCP_FILE_SIZES)]
            )
            if index % 20 == 19:
                start = time.perf_counter()
                report = sim.scan(incremental=True)
                elapsed += time.perf_counter() - start
                scanned += report.scanned_bytes
        return elapsed, scanned, report.total

    runs = [run() for _ in range(repeat)]
    return {"best_seconds": min(elapsed for elapsed, _, _ in runs),
            "scans": scans, "scanned_bytes": runs[-1][1],
            "matches": runs[-1][2]}


def _best_on_fresh(boot, work, repeat: int):
    """Best wall time of ``work(machine)`` over ``repeat`` machines, each
    from ``boot()`` outside the timed region, so each times the same
    work; returns it and the last machine."""
    best = machine = None
    for _ in range(repeat):
        machine = boot()
        start = time.perf_counter()
        work(machine)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, machine


def _sessions_16mb(taint: bool, repeat: int, sessions: int = 100) -> dict:
    """scp sessions on a 16 MB machine, under KeySan's write hook if
    ``taint``; without it, apps, kernel and the RSA private operation
    alone."""
    def work(sim):
        for index in range(sessions):
            sim.server.run_connection_cycle(
                SCP_FILE_SIZES[index % len(SCP_FILE_SIZES)]
            )

    best, sim = _best_on_fresh(lambda: _machine(taint), work, repeat)
    row = {"best_seconds": best, "sessions": sessions}
    if taint:
        row["events_matched"] = sim.keysan.events_matched
    return row


def _hardware_sessions_16mb(repeat: int, requests: int = 100) -> dict:
    """Siege requests on a 16 MB apache machine at HARDWARE, where every
    private operation runs in the key vault."""
    def boot():
        sim = Simulation(SimulationConfig(
            server="apache", level=ProtectionLevel.HARDWARE, memory_mb=16,
            seed=SEED,
        ))
        sim.start_server()
        return sim

    def work(sim):
        for _ in range(requests):
            sim.server.handle_request(SIEGE_RESPONSE_BYTES)

    best, sim = _best_on_fresh(boot, work, repeat)
    return {"best_seconds": best, "requests": requests,
            "vault_ops": sim.kernel.vault.ops_performed}


def _age_memory_32mb(repeat: int) -> dict:
    """Boot aging of a fresh 32 MB machine: the buddy allocator's
    order-0 alloc and free paths, frame by frame."""
    def boot():
        return Kernel(KernelConfig.vulnerable(memory_mb=32))

    def work(kern):
        kern.age_memory(random.Random(SEED))

    best, kern = _best_on_fresh(boot, work, repeat)
    return {"best_seconds": best, "held_frames": len(kern._aged_holders)}


def _keygen_cold(repeat: int) -> dict:
    """Per-run key acquisition: cold keygen, beside the corpus hit."""
    def cold_once():
        keycorpus.clear()
        keycorpus.key_material(KEY_BITS, 424242)

    cold = _best_of(cold_once, repeat)[0]
    warm = _best_of(lambda: keycorpus.key_material(KEY_BITS, 424242),
                    max(repeat, 3))[0]
    return {"best_seconds": cold, "warm_hit_seconds": round(warm, 6)}


HOT_LOOPS = {
    "scan_256mb_full": _scan_256mb_full,
    "scan_apache_pool_16mb": _scan_apache_pool_16mb,
    "scan_incremental_16mb": _scan_incremental_16mb,
    "shadow_census_256mb": _shadow_census_256mb,
    "taint_audit_16mb": _taint_audit_16mb,
    "taint_audit_sessions_16mb": _taint_audit_sessions_16mb,
    "serve_sessions_16mb": functools.partial(_sessions_16mb, False),
    "taint_sessions_16mb": functools.partial(_sessions_16mb, True),
    f"keygen_cold_{KEY_BITS}": _keygen_cold,
    "hardware_sessions_16mb": _hardware_sessions_16mb,
    "age_memory_32mb": _age_memory_32mb,
}


def _timed(repeat: int):
    for name, fn in STATIC_ROWS.items():
        best, extra = _best_of(fn, repeat)
        yield name, {"best_seconds": best, **extra}
    for name, fn in HOT_LOOPS.items():
        yield name, fn(repeat)


def measure_rows(repeat: int) -> list:
    """Time every row, static rows first, in ledger order."""
    rows = []
    for name, row in _timed(repeat):
        rows.append({"name": name, **row,
                     "best_seconds": round(row["best_seconds"], 4)})
        print(f"{name:20s} best {row['best_seconds']:7.3f}s", file=sys.stderr)
    return rows


def check_regression(rows: list, baseline_payload: dict) -> list:
    """Compare fresh rows against the committed ledger; return
    human-readable failures (empty = within budget)."""
    committed = {row["name"]: row for row in baseline_payload.get("rows", [])}
    failures = []
    for row in rows:
        base = committed.get(row["name"])
        if base is None:
            continue  # new row: no baseline yet, nothing to regress
        budget = base["best_seconds"] * REGRESSION_RATIO + FLOOR_SECONDS
        if row["best_seconds"] > budget:
            failures.append(
                f"{row['name']}: best {row['best_seconds']:.3f}s exceeds "
                f"budget {budget:.3f}s "
                f"(baseline {base['best_seconds']:.3f}s × {REGRESSION_RATIO} "
                f"+ {FLOOR_SECONDS}s floor)"
            )
    return failures


# ----------------------------------------------------------------------
# sweep speedup
# ----------------------------------------------------------------------
def sweep_speedup() -> dict:
    specs = ntty_sweep_specs(
        "openssh", QUICK.ntty_connections, QUICK.ntty_repetitions,
        ProtectionLevel.NONE, SEED, MEMORY_MB, KEY_BITS,
    )
    started = time.monotonic()
    prewarmed = prewarm_corpus(specs)
    prewarm_s = time.monotonic() - started

    merged, walls = [], []
    for workers in (1, WORKERS):
        started = time.monotonic()
        outcomes, failures = run_specs(specs, workers=workers)
        walls.append(time.monotonic() - started)
        assert not failures, failures
        merged.append(merge_ntty("openssh", ProtectionLevel.NONE.value,
                                 outcomes, failures))
    assert merged[0].cells == merged[1].cells, (
        "parallel sweep diverged from serial — seed derivation broken"
    )
    serial_s, pooled_s = walls
    return {
        "workers": WORKERS,
        "grid": {
            "connections": list(QUICK.ntty_connections),
            "repetitions": QUICK.ntty_repetitions,
            "memory_mb": MEMORY_MB,
            "key_bits": KEY_BITS,
            "seed": SEED,
        },
        "runs": len(specs),
        "prewarm": {"keys": prewarmed, "seconds": round(prewarm_s, 3)},
        "serial_wall_s": round(serial_s, 3),
        "parallel_wall_s": round(pooled_s, 3),
        "speedup": round(serial_s / pooled_s if pooled_s else 0.0, 3),
        "cells_identical": True,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ledger", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--repeat", type=int, default=3,
        help="repetitions per row; the best is kept (default: 3)",
    )
    parser.add_argument(
        "--out", type=Path, default=DEFAULT_OUT,
        help=f"output JSON path (default: {DEFAULT_OUT.name} at repo root)",
    )
    parser.add_argument(
        "--check-regression", action="store_true",
        help=f"gate every row against the committed {DEFAULT_OUT.name}; "
             "exit 1 on a >20%% slowdown beyond the noise floor",
    )
    parser.add_argument(
        "--require-speedup", action="store_true",
        help=f"fail (exit 1) below {MIN_SPEEDUP}x parallel speedup "
             "regardless of core count — the multi-core CI job's mode",
    )
    args = parser.parse_args(argv)

    baseline = None
    if args.check_regression:
        if not DEFAULT_OUT.exists():
            print(f"no committed ledger at {DEFAULT_OUT}", file=sys.stderr)
            return 2
        baseline = json.loads(DEFAULT_OUT.read_text(encoding="utf-8"))

    cores = available_cores()
    assert_speedup = args.require_speedup or cores >= 2
    rows = measure_rows(args.repeat)
    sweep = {
        "cpu_count": cores,
        **sweep_speedup(),
        "speedup_asserted": assert_speedup,
        "min_speedup": MIN_SPEEDUP,
    }
    payload = {
        "benchmark": "ledger",
        "target": str(TARGET.relative_to(REPO_ROOT)),
        "python": sys.version.split()[0],
        "repeat": args.repeat,
        "rows": rows,
        "sweep": sweep,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"sweep speedup {sweep['speedup']:.2f}x -> {args.out}",
          file=sys.stderr)

    failures = check_regression(rows, baseline) if baseline else []
    if assert_speedup and sweep["speedup"] < MIN_SPEEDUP:
        failures.append(
            f"sweep: {sweep['speedup']:.2f}x < {MIN_SPEEDUP}x at "
            f"{WORKERS} workers on {cores} cores"
        )
    for failure in failures:
        print(f"GATE FAILURE: {failure}", file=sys.stderr)
    if baseline and not failures:
        print("ledger gate: within budget", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
