"""Command-line interface: drive the reproduction without writing code.

::

    python -m repro demo                      # quickstart before/after
    python -m repro attack --server apache --level none --exploit ntty
    python -m repro timeline --level integrated
    python -m repro ladder                    # all protection levels
    python -m repro scan --level none --connections 12
    python -m repro sweep --kind ntty --scale quick --workers 4

Every command is deterministic for a given ``--seed`` — including
``sweep`` at any ``--workers`` count (per-run seeds are hashed from
the run spec, not from execution order).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.report import render_locations, render_timeline
from repro.analysis.timeline import run_timeline
from repro.core.protection import ProtectionLevel
from repro.core.simulation import Simulation, SimulationConfig


def _add_server(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--server", choices=("openssh", "apache"), default="openssh",
        help="which server to run (default: openssh)",
    )


def _add_machine(parser: argparse.ArgumentParser) -> None:
    """Server, level and seed, as ``sweep`` and every one-machine
    command take them."""
    _add_server(parser)
    parser.add_argument(
        "--level",
        choices=[level.value for level in ProtectionLevel],
        default="none",
        help="protection level to deploy (default: none)",
    )
    parser.add_argument("--seed", type=int, default=42, help="experiment seed")


def _add_key_bits(parser: argparse.ArgumentParser, default: int) -> None:
    parser.add_argument(
        "--key-bits", type=int, default=default, help="RSA modulus size"
    )


def _add_common(parser: argparse.ArgumentParser) -> None:
    _add_machine(parser)
    parser.add_argument(
        "--memory-mb", type=int, default=16, help="machine RAM in MB"
    )
    _add_key_bits(parser, 1024)
    parser.add_argument(
        "--connections", type=int, default=12,
        help="concurrent connections to hold during measurement",
    )


def _build_sim(args: argparse.Namespace) -> Simulation:
    return Simulation(
        SimulationConfig(
            server=args.server,
            level=ProtectionLevel(args.level),
            seed=args.seed,
            memory_mb=args.memory_mb,
            key_bits=args.key_bits,
        )
    )


def _loaded_sim(args: argparse.Namespace) -> Simulation:
    sim = _build_sim(args)
    sim.start_server()
    sim.cycle_connections(max(20, 2 * args.connections))
    sim.hold_connections(args.connections)
    return sim


def cmd_demo(args: argparse.Namespace) -> int:
    for level in (ProtectionLevel.NONE, ProtectionLevel.INTEGRATED):
        args.level = level.value
        sim = _loaded_sim(args)
        report = sim.scan()
        ext2 = sim.run_ext2_attack(800)
        ntty = sim.run_ntty_attack()
        print(f"\n[{args.server} @ {level.value}]")
        print(f"  scanner : {report.total} copies "
              f"({report.allocated_count} allocated / "
              f"{report.unallocated_count} unallocated)")
        print(f"  ext2    : {'EXPOSED' if ext2.success else 'eliminated'} "
              f"({ext2.total_copies} copies)")
        print(f"  n_tty   : {'EXPOSED' if ntty.success else 'missed'} "
              f"({ntty.total_copies} copies at {ntty.coverage:.0%} coverage)")
    return 0


def cmd_attack(args: argparse.Namespace) -> int:
    sim = _loaded_sim(args)
    if args.exploit == "ext2":
        result = sim.run_ext2_attack(args.dirs)
        print(f"created {args.dirs} directories; disclosed "
              f"{result.disclosed_bytes // 1024} KB of (stale) kernel memory")
    elif args.exploit == "ntty":
        result = sim.run_ntty_attack()
        print(f"dumped {result.coverage:.0%} of physical memory")
    else:
        from repro.attacks.swap_attack import SwapDiskAttack

        attack = SwapDiskAttack(sim.kernel, sim.patterns)
        evicted = attack.apply_memory_pressure(args.pressure)
        result = attack.run()
        print(f"forced {evicted} pages to swap; read the swap device")
    print(f"key copies found: {result.total_copies}  "
          f"({'ATTACK SUCCEEDED' if result.success else 'attack failed'})")
    print(f"per pattern: {result.counts}")
    return 0 if result.success else 1


def cmd_timeline(args: argparse.Namespace) -> int:
    result = run_timeline(
        args.server,
        ProtectionLevel(args.level),
        seed=args.seed,
        memory_mb=args.memory_mb,
        key_bits=args.key_bits,
        cycles_per_slot=args.cycles_per_slot,
        incremental_scan=args.incremental,
    )
    print(render_timeline(result))
    print()
    print(render_locations(result))
    return 0


def cmd_ladder(args: argparse.Namespace) -> int:
    print(f"{args.server}: attack outcomes per protection level")
    header = f"{'level':>12} | {'copies':>6} | {'ext2':>10} | n_tty (5 dumps)"
    print(header)
    print("-" * len(header))
    for level in ProtectionLevel:
        args.level = level.value
        sim = _loaded_sim(args)
        report = sim.scan()
        ext2 = sim.run_ext2_attack(600)
        wins = sum(sim.run_ntty_attack().success for _ in range(5))
        print(f"{level.value:>12} | {report.total:>6} | "
              f"{'EXPOSED' if ext2.success else 'eliminated':>10} | {wins}/5")
    return 0


def cmd_taint(args: argparse.Namespace) -> int:
    sim = Simulation(
        SimulationConfig(
            server=args.server,
            level=ProtectionLevel(args.level),
            seed=args.seed,
            memory_mb=args.memory_mb,
            key_bits=args.key_bits,
            taint=True,
        )
    )
    sim.start_server()
    sim.cycle_connections(max(20, 2 * args.connections))
    sim.hold_connections(args.connections)
    report = sim.taint_report()
    print(report.render(max_diagnostics=args.limit))
    check = report.cross_check(sim.scan())
    print("cross-check against MemoryScanner:")
    print(check.render())
    return 0 if check.consistent else 1


def _emit(text: str, out: Optional[str]) -> None:
    """Print, or write to ``--out`` when given."""
    if out:
        from pathlib import Path

        Path(out).write_text(text, encoding="utf-8")
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def _report_syntax_error(exc: SyntaxError) -> int:
    """An unparsable target file is bad input (exit 2), not a finding."""
    print(f"{exc.filename}:{exc.lineno}: SyntaxError: {exc.msg}", file=sys.stderr)
    return 2


def cmd_lint(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.analysis.lint import lint_paths, render_report, render_sarif

    paths = [Path(p) for p in args.paths]
    if not paths:
        # Default target: the installed repro package sources.
        paths = [Path(__file__).resolve().parent]
    try:
        violations = lint_paths(paths)
    except SyntaxError as exc:
        return _report_syntax_error(exc)
    except FileNotFoundError as exc:
        print(exc, file=sys.stderr)
        return 2
    if args.format == "sarif":
        _emit(json.dumps(render_sarif(violations), indent=2) + "\n", args.out)
    else:
        _emit(render_report(violations) + "\n", args.out)
    return 1 if violations else 0


def cmd_analyze(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.analysis.baseline import load_baseline, write_baseline
    from repro.analysis.runall import baseline_path, parse_layers, run_all

    paths = [Path(p) for p in args.paths] if args.paths else None
    try:
        layers = parse_layers(args.layers)
        result = run_all(paths=paths, check=args.check, layers=layers)
    except SyntaxError as exc:
        return _report_syntax_error(exc)
    except (OSError, ValueError) as exc:
        # A missing target, or a baseline the loader rejects: the gate
        # itself is broken, which is exit 2, never drift's exit 1.
        print(exc, file=sys.stderr)
        return 2
    _emit(result.render(args.format), args.out)
    if args.write_baseline:
        try:
            for name in result.ran_tools:
                path = baseline_path(name)
                write_baseline(
                    result.reports[name], path,
                    existing=load_baseline(path), tool=name,
                )
                print(f"{name}: baseline written to {path}", file=sys.stderr)
        except (OSError, ValueError) as exc:
            print(exc, file=sys.stderr)
            return 2
        return 0
    if args.check:
        return 0 if result.ok else 1
    return 0


def _cells_json(result) -> list:
    """A sweep's cells, keyed N (ntty) or (N, D) (ext2)."""
    rows = []
    for key, cell in sorted(result.cells.items()):
        if isinstance(key, tuple):
            row = {"connections": key[0], "directories": key[1]}
        else:
            row = {"connections": key}
        rows.append({
            **row,
            "avg_copies": cell.avg_copies,
            "success_rate": cell.success_rate,
            "avg_elapsed_s": cell.avg_elapsed_s,
            "samples": cell.samples,
        })
    return rows


def _write_report(
    payload: dict, out: Optional[str], default_name: str, sort_keys: bool
) -> Optional[str]:
    """The report writer of ``sweep``, ``chaos`` and ``soak``: print the
    JSON when ``out`` is ``-``; otherwise write it to ``out`` (default
    ``benchmarks/results/<default_name>``), making the directory, and
    return the path written."""
    import json
    from pathlib import Path

    text = json.dumps(payload, indent=2, sort_keys=sort_keys)
    if out == "-":
        print(text)
        return None
    path = Path(out) if out is not None else (
        Path("benchmarks") / "results" / default_name
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text + "\n")
    return str(path)


def cmd_sweep(args: argparse.Namespace) -> int:
    import dataclasses
    import time

    from repro.analysis import parallel
    from repro.analysis.experiments import (
        SCALES,
        ext2_attack_sweep,
        mitigation_comparison,
        ntty_attack_sweep,
    )
    from repro.analysis.perfbench import overhead_ratio

    scale = SCALES[args.scale]
    level = ProtectionLevel(args.level)
    ntty_mb = args.memory_mb or scale.ntty_memory_mb
    ext2_mb = args.memory_mb or scale.memory_mb
    progress = parallel.stderr_progress(f"sweep:{args.kind}")
    common = dict(workers=args.workers, timeout_s=args.timeout,
                  progress=progress, retries=args.retries)

    started = time.monotonic()
    payload = {
        "kind": args.kind,
        "server": args.server,
        "level": args.level,
        "scale": args.scale,
        "workers": args.workers,
        "seed": args.seed,
        "key_bits": args.key_bits,
        "attacker": args.attacker,
    }
    failures: list = []
    if args.attacker != "exact" and args.kind not in ("ntty", "ext2"):
        print(
            f"--attacker applies to ntty/ext2 sweeps, not {args.kind!r}",
            file=sys.stderr,
        )
        return 2
    if args.retries < 0:
        print("--retries must be non-negative", file=sys.stderr)
        return 2
    if args.kind == "ntty":
        result = ntty_attack_sweep(
            args.server, scale.ntty_connections, scale.ntty_repetitions,
            level, seed=args.seed, memory_mb=ntty_mb,
            key_bits=args.key_bits, attacker=args.attacker, **common,
        )
        payload.update(memory_mb=ntty_mb, cells=_cells_json(result))
        failures = result.failures
    elif args.kind == "ext2":
        result = ext2_attack_sweep(
            args.server, scale.ext2_connections, scale.ext2_directories,
            scale.ext2_repetitions, level, seed=args.seed,
            memory_mb=ext2_mb, key_bits=args.key_bits,
            attacker=args.attacker, **common,
        )
        payload.update(memory_mb=ext2_mb, cells=_cells_json(result))
        failures = result.failures
    elif args.kind == "mitigation":
        baseline, mitigated = mitigation_comparison(
            args.server, scale.ntty_connections, scale.ntty_repetitions,
            mitigated_level=ProtectionLevel.INTEGRATED, seed=args.seed,
            memory_mb=ntty_mb, key_bits=args.key_bits, **common,
        )
        payload.update(
            memory_mb=ntty_mb,
            baseline=_cells_json(baseline),
            mitigated=_cells_json(mitigated),
        )
        failures = baseline.failures + mitigated.failures
    else:  # perf: before/after scp or siege through the same pool
        perf_kind = "scp" if args.server == "openssh" else "siege"
        memory_mb = args.memory_mb or scale.memory_mb
        specs = [
            parallel.perf_spec(perf_kind, lvl, scale.perf_transactions,
                               20, args.seed, memory_mb, args.key_bits)
            for lvl in (ProtectionLevel.NONE, ProtectionLevel.INTEGRATED)
        ]
        outcomes, failures = parallel.run_specs(specs, **common)
        metrics = [
            parallel.merge_perf(outcome) if outcome else None
            for outcome in outcomes
        ]
        payload.update(memory_mb=memory_mb, bench=perf_kind)
        if all(metrics):
            before, after = metrics
            payload.update(
                before={"transaction_rate": before.transaction_rate,
                        "throughput_mbit": before.throughput_mbit,
                        "response_time_s": before.response_time_s},
                after={"transaction_rate": after.transaction_rate,
                       "throughput_mbit": after.throughput_mbit,
                       "response_time_s": after.response_time_s},
                overhead=overhead_ratio(before, after),
            )
    payload["retries"] = args.retries
    payload["wall_clock_s"] = round(time.monotonic() - started, 3)
    payload["failures"] = [dataclasses.asdict(f) for f in failures]

    out = _write_report(
        payload, args.out, f"sweep_{args.kind}_{args.server}_{args.scale}.json",
        sort_keys=False,
    )
    if out is not None:
        print(f"sweep {args.kind}/{args.server} @ {args.scale}: "
              f"{payload['wall_clock_s']}s wall clock, "
              f"{len(payload['failures'])} failed runs -> {out}")
    return 1 if failures else 0


#: Each campaign's per-level summary line, formatted with its level
#: summary ``s`` and its report ``r``.
_CAMPAIGN_LINES = {
    "chaos": (
        "{s[faults_fired]} faults fired over {s[schedules]} schedules: "
        "{s[connections_ok]} connections served, {s[rejected]} rejected, "
        "{s[unhandled]} unhandled, {s[leak_schedules]} leaking schedules"
    ),
    "soak": (
        "{s[faults_fired]} faults fired over {s[schedules]} schedules x "
        "{r[generations]} generations: {s[restarts]} restarts "
        "(max latency {s[restart_latency_us][max]} virtual us), "
        "{s[refused_connections]} refused, "
        "{s[degraded_generations]} degraded, {s[unhandled]} unhandled, "
        "{s[invariant_violations]} invariant violations, "
        "{s[leak_schedules]} leaking schedules "
        "({s[cross_incarnation_taint_bytes]} cross-incarnation key bytes)"
    ),
}


def cmd_campaign(args: argparse.Namespace) -> int:
    """``chaos`` and ``soak``: run the campaign, write its report, print
    one summary line per level and the INTEGRATED verdict."""
    from repro.analysis.parallel import stderr_progress

    if args.command == "chaos":
        from repro.faults.campaign import CHAOS as campaign, run_campaign as run

        extra = {"faults_per_schedule": args.faults}
    else:
        from repro.faults.soak import SOAK as campaign, run_soak as run

        extra = {"generations": args.generations,
                 "faults_per_generation": args.faults,
                 "workers": args.workers}
    levels = (list(ProtectionLevel) if args.level == "all"
              else [ProtectionLevel(args.level)])
    try:
        report = run(
            server=args.server,
            levels=levels,
            seed=args.seed,
            schedules=args.schedules,
            connections=args.connections,
            pressure_pages=args.pressure,
            memory_mb=args.memory_mb,
            key_bits=args.key_bits,
            progress=stderr_progress(args.command),
            **extra,
        )
    except ValueError as exc:  # a count the campaign cannot run
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2
    _write_report(report, args.out, f"{args.command}_{args.server}_{args.level}.json",
                  sort_keys=True)
    for level_name, data in report["levels"].items():
        line = _CAMPAIGN_LINES[args.command].format(s=data["summary"], r=report)
        print(f"[{args.server} @ {level_name}] {line}")
    invariant = report.get("invariant")
    if invariant is not None:
        verdict = "HOLDS" if invariant["holds"] else "VIOLATED"
        print(f"integrated invariant {verdict}: {invariant['statement']}")
    return 0 if campaign.ok(report) else 1


def cmd_scan(args: argparse.Namespace) -> int:
    sim = _loaded_sim(args)
    report = sim.scan()
    print(f"{report.total} key copies in {report.scanned_bytes // (1 << 20)} MB "
          f"of physical memory")
    print(f"by pattern: {report.by_pattern()}")
    print(f"by region : {report.by_region()}")
    for match in report.matches[: args.limit]:
        owners = ",".join(map(str, match.owners)) or "-"
        print(f"  {match.pattern:>4} @ {match.address:#010x} "
              f"frame {match.frame:>6} {match.region:<13} owners: {owners}")
    if report.total > args.limit:
        print(f"  ... and {report.total - args.limit} more")
    return 0


def _add_campaign(
    sub, name: str, help: str, verb: str, unit: str, schedules: int,
    faults: int, connections: int, pressure: int,
) -> argparse.ArgumentParser:
    """The arguments ``chaos`` and ``soak`` share, with each command's
    own defaults; ``unit`` is what faults and connections count per."""
    parser = sub.add_parser(name, help=help)
    _add_server(parser)
    parser.add_argument(
        "--level",
        choices=[level.value for level in ProtectionLevel] + ["all"],
        default="integrated",
        help=f"protection level to {verb}, or 'all' (default: integrated)",
    )
    parser.add_argument("--seed", type=int, default=42, help="campaign seed")
    parser.add_argument(
        "--schedules", type=int, default=schedules,
        help=f"{name} schedules (fresh machines) per level "
             f"(default: {schedules})",
    )
    parser.add_argument(
        "--faults", type=int, default=faults,
        help=f"fault events drawn per {unit} (default: {faults})",
    )
    parser.add_argument(
        "--connections", type=int, default=connections,
        help=f"connection cycles per {unit} (default: {connections})",
    )
    parser.add_argument(
        "--pressure", type=int, default=pressure,
        help=f"pages reclaimed mid-{unit} to exercise the swap sites",
    )
    parser.add_argument(
        "--memory-mb", type=int, default=8, help="machine RAM in MB"
    )
    _add_key_bits(parser, 256)
    parser.add_argument(
        "--out", default=None,
        help=f"{name} report path ('-' prints to stdout; default "
             f"benchmarks/results/{name}_<server>_<level>.json)",
    )
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Protecting Cryptographic Keys from "
                    "Memory Disclosure Attacks' (DSN 2007)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="quickstart: attacks before/after protection")
    _add_common(demo)
    demo.set_defaults(func=cmd_demo)

    attack = sub.add_parser("attack", help="run one exploit against a loaded server")
    _add_common(attack)
    attack.add_argument(
        "--exploit", choices=("ext2", "ntty", "swap"), default="ext2"
    )
    attack.add_argument("--dirs", type=int, default=1000,
                        help="directories to create (ext2 exploit)")
    attack.add_argument("--pressure", type=int, default=1000,
                        help="pages to force out (swap exploit)")
    attack.set_defaults(func=cmd_attack)

    timeline = sub.add_parser("timeline", help="run the paper's 29-step schedule")
    _add_common(timeline)
    timeline.add_argument("--cycles-per-slot", type=int, default=2)
    timeline.add_argument(
        "--incremental", action="store_true",
        help="route the 30 per-step scans through the incremental "
             "scanner (identical output, only changed frames re-searched)",
    )
    timeline.set_defaults(func=cmd_timeline)

    ladder = sub.add_parser("ladder", help="compare every protection level")
    _add_common(ladder)
    ladder.set_defaults(func=cmd_ladder)

    scan = sub.add_parser("scan", help="scanmemory: locate key copies + owners")
    _add_common(scan)
    scan.add_argument("--limit", type=int, default=20,
                      help="max matches to list individually")
    scan.set_defaults(func=cmd_scan)

    sweep = sub.add_parser(
        "sweep",
        help="run a full attack/perf sweep over a process pool and "
             "write JSON results to benchmarks/results/",
    )
    sweep.add_argument(
        "--kind", choices=("ntty", "ext2", "mitigation", "perf"),
        default="ntty", help="which experiment grid to run (default: ntty)",
    )
    _add_machine(sweep)
    sweep.add_argument(
        "--scale", choices=("quick", "paper"), default="quick",
        help="grid size: scaled-down shapes or the paper's full §2 scale",
    )
    sweep.add_argument(
        "--workers", type=int, default=1,
        help="process-pool size; results are identical at any value",
    )
    sweep.add_argument(
        "--timeout", type=float, default=None,
        help="sweep wall-clock budget in seconds; late runs are "
             "recorded as failed cells instead of hanging",
    )
    sweep.add_argument(
        "--retries", type=int, default=0,
        help="re-run failed cells up to N extra times (deterministic: "
             "a recovered cell is byte-identical to a first-try run)",
    )
    sweep.add_argument(
        "--memory-mb", type=int, default=None,
        help="machine RAM in MB (default: per-scale/per-kind)",
    )
    _add_key_bits(sweep, 1024)
    sweep.add_argument(
        "--attacker", choices=("exact", "predict"), default="exact",
        help="dump analysis: 'exact' pattern search (the paper's "
             "metric) or 'predict' structural key reconstruction from "
             "derived fragments (ntty/ext2 kinds only)",
    )
    sweep.add_argument(
        "--out", default=None,
        help="output JSON path ('-' prints to stdout; default "
             "benchmarks/results/sweep_<kind>_<server>_<scale>.json)",
    )
    sweep.set_defaults(func=cmd_sweep)

    chaos = _add_campaign(
        sub, "chaos",
        "seeded fault-injection campaign: random fault schedules "
        "per protection level, post-fault state checked against "
        "the KeySan oracle",
        verb="stress", unit="schedule", schedules=200, faults=6,
        connections=6, pressure=8,
    )
    chaos.set_defaults(func=cmd_campaign)

    soak = _add_campaign(
        sub, "soak",
        "supervised crash-recovery soak: fault storms across many "
        "kill -9/restart generations, post-mortem key audit and "
        "steady-state invariants checked every generation",
        verb="soak", unit="generation", schedules=50, faults=3,
        connections=4, pressure=6,
    )
    soak.add_argument(
        "--generations", type=int, default=5,
        help="crash/restart generations per schedule (default: 5)",
    )
    soak.add_argument(
        "--workers", type=int, default=1,
        help="parallel schedule workers (reports are byte-identical "
             "for any value; default: 1)",
    )
    soak.set_defaults(func=cmd_campaign)

    taint = sub.add_parser(
        "taint",
        help="KeySan: run with the taint sanitizer, print the leak report "
             "and cross-check the scanner against the oracle",
    )
    _add_common(taint)
    taint.add_argument("--limit", type=int, default=20,
                       help="max diagnostics to list individually")
    taint.set_defaults(func=cmd_taint)

    analyze = sub.add_parser(
        "analyze",
        help="run the whole static stack (keylint+KeyFlow+KeyState+"
             "KeyCount+KeyRecon+KeySpan) over one shared IR build with "
             "merged SARIF",
    )
    analyze.add_argument(
        "paths", nargs="*",
        help="files/directories to analyze (default: the repro package)",
    )
    analyze.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="report format (default: text)",
    )
    analyze.add_argument(
        "--out", default=None,
        help="write the report to a file instead of stdout",
    )
    analyze.add_argument(
        "--check", action="store_true",
        help="exit 1 on any keylint violation or baseline drift "
             "(in the selected layers only)",
    )
    analyze.add_argument(
        "--layers", default=None,
        help="comma-separated subset of layers to run over the one IR "
             "build (default: all; e.g. --layers keylint,keyflow)",
    )
    analyze.add_argument(
        "--write-baseline", action="store_true",
        help="rewrite each selected IR layer's packaged baseline from "
             "this run (keeps existing justifications)",
    )
    analyze.set_defaults(func=cmd_analyze)

    lint = sub.add_parser(
        "lint", help="keylint: AST secret-hygiene lint (KeySan static pass)"
    )
    lint.add_argument("paths", nargs="*",
                      help="files or directories (default: the repro package)")
    lint.add_argument(
        "--format", choices=("text", "sarif"), default="text",
        help="report format (default: text)",
    )
    lint.add_argument(
        "--out", default=None, help="write the report to a file instead of stdout",
    )
    lint.set_defaults(func=cmd_lint)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
