"""The paper's claims, as one table checked against fresh runs.

Each row of :data:`CLAIMS` is one shape the reproduction must show: the
paper figure (or section) it comes from, the workload that measures it
and a predicate over that workload's result.  ``test_claims`` runs each
workload once, writes its series and every claim's verdict to
``benchmarks/results/<workload>.txt`` and fails naming each claim that
does not hold.  The seeded regressions at the end switch one
countermeasure off and check that a named claim notices.

Run (tier-1 does not collect this directory)::

    PYTHONPATH=src python -m pytest benchmarks -q

``REPRO_BENCH_SCALE=paper`` swaps the quick grids for the paper's (§2)
ones; both come from ``repro.analysis.experiments.SCALES``, the table
``repro sweep --scale`` reads.  Absolute numbers are a simulator's; the
claims are about shape: who wins, by what factor, where it crosses.
"""

from __future__ import annotations

import dataclasses
import os
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, NamedTuple, Tuple

import pytest

from repro.analysis import parallel
from repro.analysis.experiments import (
    SCALES,
    ext2_attack_sweep,
    mitigation_comparison,
    ntty_attack_sweep,
)
from repro.analysis.perfbench import overhead_ratio, run_scp_stress, run_siege
from repro.analysis.report import (
    render_locations,
    render_series,
    render_surface,
    render_table,
    render_timeline,
)
from repro.analysis.timeline import (
    T_START_SERVER,
    T_TRAFFIC_16,
    T_TRAFFIC_8,
    T_TRAFFIC_STOP,
    run_timeline,
)
from repro.attacks.coredump import CoreDumpAttack
from repro.attacks.ext2_dirleak import Ext2DirLeakAttack
from repro.attacks.keysearch import KeyPatternSet
from repro.attacks.scanner import MemoryScanner
from repro.attacks.swap_attack import SwapDiskAttack
from repro.core import protection
from repro.core.memory_align import rsa_memory_align, rsa_memory_lock
from repro.core.protection import ProtectionLevel
from repro.core.simulation import Simulation, SimulationConfig
from repro.crypto.randsrc import DeterministicRandom
from repro.crypto.rsa import generate_rsa_key, int_to_bytes
from repro.kernel.fs import SimFileSystem
from repro.kernel.kernel import Kernel, KernelConfig
from repro.kernel.tty import NttyVulnerability
from repro.ssl.bn import bn_bin2bn
from repro.ssl.engine import rsa_private_operation
from repro.ssl.rsa_st import PART_NAMES, RsaFlag, RsaStruct

SCALE = SCALES["paper" if os.environ.get("REPRO_BENCH_SCALE") == "paper" else "quick"]
KEY_BITS = 1024
RESULTS_DIR = Path(__file__).parent / "results"

NONE = ProtectionLevel.NONE
APPLICATION = ProtectionLevel.APPLICATION
LIBRARY = ProtectionLevel.LIBRARY
KERNEL = ProtectionLevel.KERNEL
INTEGRATED = ProtectionLevel.INTEGRATED
HARDWARE = ProtectionLevel.HARDWARE

#: A workload returns its result (what the predicates read) and the
#: text its results file shows.
WORKLOADS: Dict[str, Callable[[], Tuple[Any, str]]] = {}


def workload(fn):
    WORKLOADS[fn.__name__] = fn
    return fn


# ----------------------------------------------------------------------
# §2 attack sweeps (Figs 1-4, 7, 17-18)
# ----------------------------------------------------------------------
def _sweep_args(memory_mb: int) -> dict:
    return dict(key_bits=KEY_BITS, memory_mb=memory_mb,
                workers=parallel.available_cores())


def _ext2(server: str):
    result = ext2_attack_sweep(
        server, SCALE.ext2_connections, SCALE.ext2_directories,
        SCALE.ext2_repetitions, NONE, **_sweep_args(SCALE.memory_mb),
    )
    fig, name = {"openssh": ("1", "OpenSSH"), "apache": ("2", "Apache")}[server]
    text = render_surface(
        f"Figure {fig}(a): avg # of {name} private-key copies found per run",
        "conns", "dirs", result.copies_surface(),
    ) + "\n\n" + render_surface(
        f"Figure {fig}(b): {name} attack success rate",
        "conns", "dirs", result.success_surface(),
    )
    return result, text + f"\n\nattack latency: max {_latency(result):.1f}s"


def _ntty(server: str, title: str):
    result = ntty_attack_sweep(
        server, SCALE.ntty_connections, SCALE.ntty_repetitions, NONE,
        **_sweep_args(SCALE.ntty_memory_mb),
    )
    return result, render_series(title, "conns", {
        "(a) avg copies found": result.copies_series(),
        "(b) success rate": result.success_series(),
    })


def _mitigation(server: str, copies_title: str, success_title: str):
    baseline, mitigated = mitigation_comparison(
        server, SCALE.ntty_connections, SCALE.ntty_repetitions, INTEGRATED,
        **_sweep_args(SCALE.ntty_memory_mb),
    )
    text = "\n\n".join(
        render_series(title, "conns", {
            "original": getattr(baseline, series)(),
            "with library-kernel solution": getattr(mitigated, series)(),
        })
        for title, series in ((copies_title, "copies_series"),
                              (success_title, "success_series"))
    )
    return (baseline, mitigated), text


@workload
def fig01_ssh_ext2_attack():
    return _ext2("openssh")


@workload
def fig02_apache_ext2_attack():
    return _ext2("apache")


@workload
def fig03_ssh_ntty_attack():
    return _ntty("openssh", "Figure 3: OpenSSH n_tty attack")


@workload
def fig04_apache_ntty_attack():
    return _ntty("apache", "Figure 4: Apache n_tty attack")


@workload
def fig07_ssh_mitigation_attack():
    return _mitigation(
        "openssh",
        "Figure 7(a): avg # of OpenSSH key copies found per n_tty dump",
        "Figure 7(b): OpenSSH n_tty attack success rate",
    )


@workload
def fig17_18_apache_mitigation_attack():
    return _mitigation(
        "apache",
        "Figure 17: avg # of Apache key copies found per n_tty dump",
        "Figure 18: Apache n_tty attack success rate",
    )


def _corner(result, pick):
    return result.cells[(pick(SCALE.ext2_connections), pick(SCALE.ext2_directories))]


def _latency(result) -> float:
    return max(cell.avg_elapsed_s for cell in result.cells.values())


def _copies(result) -> dict:
    return dict(result.copies_series())


def _success(result) -> dict:
    return dict(result.success_series())


#: Connection counts with traffic, and with Apache's pool past its
#: ~30-connection knee.
BUSY = [c for c in SCALE.ntty_connections if c > 0]
BUSY30 = [c for c in SCALE.ntty_connections if c >= 30]


def _mitigated(pair, conns) -> bool:
    """Before/after at every load: the attack always wins before;
    after, it finds at most the one aligned page (d, p, q: <= 3 hits)
    and at least 10x fewer copies than before."""
    base, mit = pair
    return all(
        _success(base)[c] == 1.0
        and _copies(base)[c] > 10 * max(1.0, _copies(mit)[c])
        and _copies(mit)[c] <= 3.0
        for c in conns
    )


def _mean_success(result, conns) -> float:
    return sum(_success(result)[c] for c in conns) / len(conns)


# ----------------------------------------------------------------------
# §3.2 / §5.3 / §6.3 timelines (Figs 5-6, 9-16, 21-28)
# ----------------------------------------------------------------------
def _timelines(server: str, levels) -> Tuple[dict, str]:
    results = {
        level: run_timeline(
            server, level, seed=5, memory_mb=SCALE.memory_mb,
            key_bits=KEY_BITS, cycles_per_slot=SCALE.timeline_cycles_per_slot,
        )
        for level in levels
    }
    text = "\n\n".join(
        f"--- {level.value} level ---\n"
        + render_timeline(result)
        + "\n\nx: allocated copy, +: unallocated copy\n"
        + render_locations(result)
        for level, result in results.items()
    )
    return results, text


@workload
def fig05_ssh_timeline_baseline():
    return _timelines("openssh", [NONE])


@workload
def fig06_apache_timeline_baseline():
    return _timelines("apache", [NONE])


@workload
def fig09_16_ssh_solution_timelines():
    return _timelines("openssh", [APPLICATION, LIBRARY, KERNEL, INTEGRATED])


@workload
def fig21_28_apache_solution_timelines():
    return _timelines("apache", [APPLICATION, LIBRARY, KERNEL, INTEGRATED])


def _busy(result):
    return result.steps[T_TRAFFIC_8:T_TRAFFIC_16 + 4]


def _constant_few(result) -> bool:
    """A constant handful of allocated copies under changing load and
    nothing unallocated: the key count no longer depends on the number
    of processes (§6.3)."""
    busy = _busy(result)
    return (
        all(s.unallocated == 0 for s in result.steps)
        and len({s.allocated for s in busy}) == 1
        and busy[0].allocated <= 5
    )


def _one_page_then_clean(result) -> bool:
    """Integrated: exactly d, P, Q on one page under load, no PEM in the
    page cache at any step, and nothing at all after shutdown."""
    return (
        all(s.total == 3 for s in _busy(result))
        and all(s.regions.get("pagecache", 0) == 0 for s in result.steps)
        and result.steps[-1].total == 0
    )


def _step(results, index):
    return results[NONE].steps[index]


def _traffic(results):
    return results[NONE].steps[T_TRAFFIC_8:T_TRAFFIC_STOP]


# ----------------------------------------------------------------------
# Figs 8, 19-20: performance before/after
# ----------------------------------------------------------------------
@workload
def fig08_ssh_performance():
    before, after = (
        run_scp_stress(level, transfers=SCALE.perf_transactions,
                       key_bits=KEY_BITS, memory_mb=SCALE.memory_mb)
        for level in (NONE, INTEGRATED)
    )
    text = render_table(["metric", "original", "multilevel", "delta %"], [
        [label, getattr(before, attr), getattr(after, attr),
         100 * (getattr(after, attr) / getattr(before, attr) - 1)]
        for label, attr in (("transaction rate (files/s)", "transaction_rate"),
                            ("throughput (Mbit/s)", "throughput_mbit"))
    ])
    return (before, after), text + _overhead_line(before, after)


@workload
def fig19_20_apache_performance():
    before, after = (
        run_siege(level, transactions=SCALE.perf_transactions,
                  key_bits=KEY_BITS, memory_mb=SCALE.memory_mb)
        for level in (NONE, INTEGRATED)
    )
    text = render_table(["metric", "original", "multilevel"], [
        [label, getattr(before, attr), getattr(after, attr)]
        for label, attr in (
            ("response time (s)", "response_time_s"),
            ("throughput (bytes/s)", "throughput_bytes"),
            ("transaction rate (trans/s)", "transaction_rate"),
            ("concurrency", "effective_concurrency"),
        )
    ])
    return (before, after), text + _overhead_line(before, after)


def _overhead_line(before, after) -> str:
    return f"\n\noverall overhead: {overhead_ratio(before, after) * 100:+.2f}%"


# ----------------------------------------------------------------------
# §3.1 scan latency
# ----------------------------------------------------------------------
@workload
def scan_latency():
    kern = Kernel(KernelConfig(version=(2, 6, 10), memory_mb=256))
    proc = kern.create_process("holder")
    proc.mm.write(proc.heap.malloc(256), b"\x5a" * 256)
    scanner = MemoryScanner(kern, KeyPatternSet({
        "d": b"\x5a" * 64, "p": b"\x99" * 64, "q": b"\x77" * 64,
        "pem": b"NOT-PRESENT-PATTERN-0123456789abcdef",
    }))
    before_us, started = kern.clock.now_us, time.perf_counter()
    report = scanner.scan()
    wall_s = time.perf_counter() - started
    simulated_s = (kern.clock.now_us - before_us) / 1e6
    text = (
        "scanmemory over 256 MB:\n"
        f"  simulated time per scan: {simulated_s:.2f} s (paper: about 5 seconds)\n"
        f"  wall-clock time of this scan: {wall_s:.3f} s\n"
        f"  matches found: {report.total} (planted d-pattern hits)"
    )
    return {"matches": report.total, "simulated_s": simulated_s}, text


# ----------------------------------------------------------------------
# §1.2 comparison and the design-choice ablations
# ----------------------------------------------------------------------
def _loaded_sshd(level, seed, **overrides) -> Simulation:
    sim = Simulation(SimulationConfig(
        server="openssh", level=level, seed=seed, key_bits=KEY_BITS,
        memory_mb=16, kernel_overrides=overrides or None,
    ))
    sim.start_server()
    return sim


def _table_of(results: dict, first: str) -> str:
    columns = list(next(iter(results.values())))
    return render_table([first] + columns, [
        [name] + [row[col] for col in columns] for name, row in results.items()
    ])


@workload
def comparison_secure_dealloc():
    """The integrated solution against Chow et al.'s secure
    deallocation [7], which clears every deallocation but leaves the
    live copies alone."""
    attacks = 10

    def evaluate(level, **overrides):
        sim = _loaded_sshd(level, 23, **overrides)
        sim.cycle_connections(40)
        sim.hold_connections(12)
        report = sim.scan()
        return {
            "allocated copies": report.allocated_count,
            "unallocated copies": report.unallocated_count,
            "ext2 attack wins": int(sim.run_ext2_attack(800).success),
            "n_tty success rate": sum(
                sim.run_ntty_attack().success for _ in range(attacks)
            ) / attacks,
        }

    results = {
        "baseline": evaluate(NONE),
        "secure dealloc (Chow [7])": evaluate(
            NONE, zero_on_free=True, zero_on_unmap=True, heap_clear_on_free=True,
        ),
        "integrated (paper)": evaluate(INTEGRATED),
        "hardware vault (ext.)": evaluate(HARDWARE),
    }
    return results, _table_of(results, "deployment")


@workload
def ablation_zero_policy():
    """Which kernel patch does the work: clearing at unmap
    (``memory.c``) covers exited processes only, clearing on free
    (``page_alloc.c``) covers everything that reaches a free list."""

    def leaked(zero_on_free, zero_on_unmap):
        kern = Kernel(KernelConfig(version=(2, 6, 10), memory_mb=8,
                                   zero_on_free=zero_on_free,
                                   zero_on_unmap=zero_on_unmap))
        root = SimFileSystem("ext2", label="root")
        root.create_file("doc.txt", b"CACHED-SECRET-PATTERN" * 100)
        kern.vfs.mount("/", root)
        # Plant residue in a dying process and a page-cache file, then
        # release both; nothing else allocates before the attack.
        proc = kern.create_process("victim")
        proc.mm.write(proc.heap.malloc(4096), b"PROCESS-SECRET-PATTERN" * 100)
        reader = kern.create_process("reader")
        fd = kern.vfs.open(reader, "/doc.txt")
        kern.vfs.read_all(reader, fd)
        kern.vfs.close(reader, fd)
        kern.exit_process(proc)
        kern.pagecache.invalidate(kern.vfs.lookup("/doc.txt").file_id)
        counts = Ext2DirLeakAttack(kern, KeyPatternSet({
            "d": b"PROCESS-SECRET-PATTERN", "p": b"CACHED-SECRET-PATTERN",
            "q": b"\x01" * 64, "pem": b"\x02" * 64,
        })).run(1500).counts
        return {"process residue leaked": counts["d"],
                "pagecache residue leaked": counts["p"]}

    results = {
        "no patch": leaked(False, False),
        "unmap-clear only": leaked(False, True),
        "free-clear only": leaked(True, False),
        "both (paper)": leaked(True, True),
    }
    return results, _table_of(results, "variant")


def _key_in(kern_config: KernelConfig, key, name: str):
    kern = Kernel(kern_config)
    proc = kern.create_process(name)
    parts = {part: bn_bin2bn(proc, int_to_bytes(getattr(key, part)))
             for part in PART_NAMES}
    return kern, proc, RsaStruct(proc, n=key.n, e=key.e, parts=parts)


N_CHILDREN = 8


@workload
def ablation_cow():
    """Physical copies of p across forked children: only the paper's
    page-exclusive, never-written region keeps one copy."""
    key = generate_rsa_key(512, DeterministicRandom(77))

    def copies(mode):
        kern, master, rsa = _key_in(KernelConfig.vulnerable(memory_mb=8), key, "server")
        if mode == "align":
            rsa_memory_align(rsa)
        elif mode == "lock":
            rsa_memory_lock(rsa)
        for _ in range(N_CHILDREN):
            rsa_private_operation(rsa.view_in(kern.fork(master)), 2)
        return len(kern.physmem.find_all(key.p_bytes()))

    results = {
        "stock (cache on)": copies("stock"),
        "RSA_memory_lock": copies("lock"),
        "RSA_memory_align (paper)": copies("align"),
    }
    return results, render_table(
        ["key handling", f"physical copies of p with {N_CHILDREN} children"],
        list(results.items()),
    )


MONT_OPS = (0, 1, 4, 16)


@workload
def ablation_mont_cache():
    """Copies of p after k private operations: the Montgomery cache
    adds one persistent copy, no cache leaves stale copies in freed
    chunks, alignment adds none."""
    key = generate_rsa_key(512, DeterministicRandom(31))

    def copies(mode, ops):
        kern, _, rsa = _key_in(KernelConfig.vulnerable(memory_mb=8), key, "worker")
        if mode == "cache off":
            rsa.flags &= ~RsaFlag.CACHE_PRIVATE
        elif mode == "aligned":
            rsa_memory_align(rsa)
        for i in range(ops):
            rsa_private_operation(rsa, 2 + i)
        return len(kern.physmem.find_all(key.p_bytes()))

    results = {mode: [copies(mode, ops) for ops in MONT_OPS]
               for mode in ("cache on", "cache off", "aligned")}
    return results, render_table(
        ["mode"] + [f"copies of p after {ops} ops" for ops in MONT_OPS],
        [[mode] + counts for mode, counts in results.items()],
    )


COVERAGES = (0.1, 0.25, 0.5, 0.75, 0.9)


@workload
def ablation_coverage():
    """n_tty success against INTEGRATED as the dump grows: with one
    allocated key page, success tracks the disclosed fraction (§7)."""
    attacks = 30
    sim = Simulation(SimulationConfig(server="openssh", level=INTEGRATED,
                                      seed=19, key_bits=512, memory_mb=8))
    sim.start_server()
    sim.hold_connections(8)
    rates = {}
    for coverage in COVERAGES:
        exploit = NttyVulnerability(sim.kernel, coverage_mean=coverage,
                                    coverage_stddev=0.0)
        wins = sum(sim.patterns.found_in(exploit.dump(sim.attack_rng).data)
                   for _ in range(attacks))
        rates[int(coverage * 100)] = wins / attacks
    return rates, render_series(
        "Attack success vs disclosed fraction (integrated protection)",
        "coverage %", {"success rate": sorted(rates.items())},
    )


@workload
def ablation_swap():
    """§4's mlock rationale: under reclaim the baseline key reaches the
    swap device; the mlocked aligned page never does."""

    def evaluate(level):
        sim = _loaded_sshd(level, 29)
        sim.hold_connections(10)
        attack = SwapDiskAttack(sim.kernel, sim.patterns)
        evicted = attack.apply_memory_pressure(2000)
        disk = attack.run()
        return {
            "pages evicted": evicted,
            "key copies on swap": disk.total_copies,
            "swap attack wins": int(disk.success),
            "copies in RAM": sim.scan().total,
        }

    results = {
        "baseline": evaluate(NONE),
        "aligned+mlocked (library)": evaluate(LIBRARY),
        "integrated": evaluate(INTEGRATED),
    }
    return results, _table_of(results, "deployment")


@workload
def ablation_coredump():
    """A core of the key-owning process (Broadwell et al., §1.2):
    alignment narrows it to the one key page, only the vault empties
    it."""

    def evaluate(level):
        sim = _loaded_sshd(level, 37)
        sim.cycle_connections(20)
        result = CoreDumpAttack(sim.server.master, sim.patterns).run()
        return {
            "key copies in core": result.total_copies,
            "key exposed": int(result.success),
            "core size (KB)": result.disclosed_bytes // 1024,
        }

    results = {level.value: evaluate(level)
               for level in (NONE, KERNEL, INTEGRATED, HARDWARE)}
    return results, _table_of(results, "level")


# ----------------------------------------------------------------------
# The claims
# ----------------------------------------------------------------------
class Claim(NamedTuple):
    figure: str
    workload: str
    name: str
    holds: Callable[[Any], bool]

    @property
    def label(self) -> str:
        return f"{self.figure}: {self.name}"


def _rows(workload_name: str, *rows) -> List[Claim]:
    return [Claim(figure, workload_name, name, holds) for figure, name, holds in rows]


def _chow(r):
    return r["secure dealloc (Chow [7])"]


def _solutions(workload_name: str, figs) -> List[Claim]:
    """Figs 9-16 / 21-28: the four solutions on one server."""
    app, lib, kern, integrated = figs
    return _rows(
        workload_name,
        (app, "application: a constant <=5 allocated copies, nothing unallocated",
         lambda r: _constant_few(r[APPLICATION])),
        (lib, "library: a constant <=5 allocated copies, the same as application",
         lambda r: _constant_few(r[LIBRARY])
         and r[LIBRARY].series("allocated") == r[APPLICATION].series("allocated")),
        (kern, "kernel: more than 50 allocated copies at 16 transfers",
         lambda r: r[KERNEL].steps[T_TRAFFIC_16].allocated > 50),
        (kern, "kernel: nothing unallocated at any step",
         lambda r: all(s.unallocated == 0 for s in r[KERNEL].steps)),
        (integrated, "integrated: one page of d, P, Q under load, no PEM, clean after",
         lambda r: _one_page_then_clean(r[INTEGRATED])),
    )


def _zero_policy_rows():
    for variant, process, pagecache in (
        ("no patch", True, True),
        ("unmap-clear only", False, True),
        ("free-clear only", False, False),
        ("both (paper)", False, False),
    ):
        for kind, leaks in (("process", process), ("pagecache", pagecache)):
            column = f"{kind} residue leaked"
            yield ("§4 ablation",
                   f"{variant}: {kind} residue " + ("leaks" if leaks else "stays clean"),
                   lambda r, v=variant, c=column, l=leaks: (r[v][c] > 0) == l)


CLAIMS: List[Claim] = [
    # Figs 1-4: the §2 attacks at NONE.
    *_rows(
        "fig01_ssh_ext2_attack",
        ("Fig 1", "the attack always wins at the largest cell",
         lambda r: _corner(r, max).success_rate == 1.0),
        ("Fig 1", "copies grow from the smallest to the largest cell",
         lambda r: _corner(r, max).avg_copies >= _corner(r, min).avg_copies),
        ("§2", "the OpenSSH ext2 attack takes under a minute",
         lambda r: _latency(r) < 60),
    ),
    *_rows(
        "fig02_apache_ext2_attack",
        ("Fig 2", "the attack always wins at the largest cell",
         lambda r: _corner(r, max).success_rate == 1.0),
        ("Fig 2", "the largest cell finds copies",
         lambda r: _corner(r, max).avg_copies > 0),
        ("§2", "the Apache ext2 attack takes under five minutes",
         lambda r: _latency(r) < 300),
    ),
    *_rows(
        "fig03_ssh_ntty_attack",
        ("Fig 3", "the attack always wins at the most connections",
         lambda r: _success(r)[max(BUSY)] == 1.0),
        ("Fig 3", "copies grow from the fewest to the most connections",
         lambda r: _copies(r)[max(BUSY)] > _copies(r)[min(BUSY)]),
        ("Fig 3", "the busiest machine holds more copies than the idle one",
         lambda r: _copies(r)[max(BUSY)] > _copies(r)[0]),
        ("§2", "the OpenSSH n_tty attack takes under a minute",
         lambda r: r.cells[max(BUSY)].avg_elapsed_s < 60),
    ),
    *_rows(
        "fig04_apache_ntty_attack",
        ("Fig 4", "the attack always wins from 30 connections",
         lambda r: all(_success(r)[c] == 1.0 for c in BUSY30)),
        ("Fig 4", "from 30 connections copies exceed twice the idle count",
         lambda r: all(_copies(r)[c] > 2 * _copies(r)[0] for c in BUSY30)),
    ),
    # Figs 5-6: the baseline timelines.
    *_rows(
        "fig05_ssh_timeline_baseline",
        ("Fig 5", "only the cached PEM copy exists before sshd starts",
         lambda r: _step(r, 0).total == 1 and _step(r, 0).regions.get("pagecache") == 1),
        ("Fig 5", "d, P and Q appear when sshd starts",
         lambda r: _step(r, T_START_SERVER).allocated > 1),
        ("Fig 5", "allocated copies more than triple when traffic starts",
         lambda r: _step(r, T_TRAFFIC_8).allocated > 3 * _step(r, T_TRAFFIC_8 - 1).allocated),
        ("Fig 5", "allocated copies rise again at 16 transfers",
         lambda r: _step(r, T_TRAFFIC_16).allocated > _step(r, T_TRAFFIC_16 - 1).allocated),
        ("Fig 5", "copies reach unallocated memory under traffic",
         lambda r: any(s.unallocated > 0 for s in _traffic(r))),
        ("Fig 5", "allocated copies drop below a third when traffic stops",
         lambda r: _step(r, T_TRAFFIC_STOP).allocated
         < _step(r, T_TRAFFIC_STOP - 1).allocated / 3),
        ("Fig 5", "after shutdown only the cached PEM copy stays allocated",
         lambda r: _step(r, -1).allocated == 1 and _step(r, -1).regions.get("pagecache") == 1),
        ("Fig 5", "after shutdown copies survive in unallocated memory",
         lambda r: _step(r, -1).unallocated > 0),
    ),
    *_rows(
        "fig06_apache_timeline_baseline",
        ("Fig 6", "the master and its pool hold >= 4 copies at start",
         lambda r: _step(r, T_START_SERVER).allocated >= 4),
        ("Fig 6", "allocated copies more than double under load",
         lambda r: _step(r, T_TRAFFIC_16).allocated > 2 * _step(r, T_TRAFFIC_8 - 1).allocated),
        ("Fig 6", "copies reach unallocated memory under traffic",
         lambda r: any(s.unallocated > 0 for s in _traffic(r))),
        ("Fig 6", "unallocated copies rise when load drops",
         lambda r: _step(r, T_TRAFFIC_STOP).unallocated >= _step(r, T_TRAFFIC_16).unallocated),
        ("Fig 6", "more than 10 unallocated copies persist to the end",
         lambda r: _step(r, -1).unallocated > 10),
    ),
    # Figs 7, 17-18: n_tty before/after the integrated solution.
    *_rows(
        "fig07_ssh_mitigation_attack",
        ("Fig 7", "at every load: 10x fewer copies, at most one page found",
         lambda r: _mitigated(r, BUSY)),
        ("Fig 7", "mean success after falls to 0.2-0.8 (the dump coverage)",
         lambda r: 0.2 <= _mean_success(r[1], BUSY) <= 0.8),
    ),
    *_rows(
        "fig17_18_apache_mitigation_attack",
        ("Figs 17-18", "from 30 connections: 10x fewer copies, at most one page found",
         lambda r: _mitigated(r, BUSY30)),
        ("Figs 17-18", "mean success after falls to 0.2-0.8 (the dump coverage)",
         lambda r: 0.2 <= _mean_success(r[1], BUSY30) <= 0.8),
    ),
    # Figs 8, 19-20: no performance penalty.
    *_rows(
        "fig08_ssh_performance",
        ("Fig 8", "scp overhead under 10%", lambda r: abs(overhead_ratio(*r)) < 0.10),
    ),
    *_rows(
        "fig19_20_apache_performance",
        ("Figs 19-20", "Siege overhead under 5%", lambda r: abs(overhead_ratio(*r)) < 0.05),
        ("Figs 19-20", "response time within 5%",
         lambda r: r[1].response_time_s == pytest.approx(r[0].response_time_s, rel=0.05)),
    ),
    # Figs 9-16, 21-28: the four solutions.
    *_solutions("fig09_16_ssh_solution_timelines",
                ("Figs 9-10", "Figs 11-12", "Figs 13-14", "Figs 15-16")),
    *_rows(
        "fig09_16_ssh_solution_timelines",
        ("Figs 13-14", "kernel: the PEM stays cached to the end",
         lambda r: r[KERNEL].steps[-1].regions.get("pagecache") == 1),
    ),
    *_solutions("fig21_28_apache_solution_timelines",
                ("Figs 21-22", "Figs 23-24", "Figs 25-26", "Figs 27-28")),
    # §3.1: scan latency.
    *_rows(
        "scan_latency",
        ("§3.1", "the scan finds the planted pattern", lambda r: r["matches"] >= 1),
        ("§3.1", "scanning 256 MB costs about 5 simulated seconds",
         lambda r: 4.5 <= r["simulated_s"] <= 5.5),
    ),
    # §1.2: against secure deallocation.
    *_rows(
        "comparison_secure_dealloc",
        ("§1.2", "the baseline loses to both attacks",
         lambda r: r["baseline"]["ext2 attack wins"] == 1
         and r["baseline"]["n_tty success rate"] == 1.0),
        ("§1.2", "secure deallocation empties unallocated memory",
         lambda r: _chow(r)["unallocated copies"] == 0),
        ("§1.2", "secure deallocation stops the ext2 attack",
         lambda r: _chow(r)["ext2 attack wins"] == 0),
        ("§1.2", "secure deallocation keeps more than 20 allocated copies",
         lambda r: _chow(r)["allocated copies"] > 20),
        ("§1.2", "secure deallocation still loses >= 90% of n_tty dumps",
         lambda r: _chow(r)["n_tty success rate"] >= 0.9),
        ("§1.2", "integrated holds exactly 3 allocated copies, none unallocated",
         lambda r: r["integrated (paper)"]["allocated copies"] == 3
         and r["integrated (paper)"]["unallocated copies"] == 0),
        ("§1.2", "integrated loses at most 80% of n_tty dumps",
         lambda r: r["integrated (paper)"]["n_tty success rate"] <= 0.8),
        ("§1.2", "integrated is strictly better: fewer allocated copies",
         lambda r: r["integrated (paper)"]["allocated copies"] < _chow(r)["allocated copies"]),
        ("§1.2", "the hardware vault leaves no copy",
         lambda r: r["hardware vault (ext.)"]["allocated copies"] == 0
         and r["hardware vault (ext.)"]["unallocated copies"] == 0),
        ("§1.2", "the hardware vault never loses an n_tty dump",
         lambda r: r["hardware vault (ext.)"]["n_tty success rate"] == 0.0),
    ),
    # Ablations of the design choices.
    *_rows("ablation_zero_policy", *_zero_policy_rows()),
    *_rows(
        "ablation_cow",
        ("§4 ablation", "RSA_memory_align keeps one physical copy of p",
         lambda r: r["RSA_memory_align (paper)"] == 1),
        ("§4 ablation", "RSA_memory_lock leaves the uncleared originals",
         lambda r: r["RSA_memory_lock"] >= 2),
        ("§4 ablation", "stock handling mints a Montgomery copy per child",
         lambda r: r["stock (cache on)"] >= N_CHILDREN),
    ),
    *_rows(
        "ablation_mont_cache",
        ("§4 ablation", "one copy of p before any operation",
         lambda r: r["cache on"][0] == r["cache off"][0] == 1),
        ("§4 ablation", "the cache adds one persistent copy from the first op",
         lambda r: r["cache on"][1:] == [2, 2, 2]),
        ("§4 ablation", "without the cache stale copies stay bounded",
         lambda r: all(n >= 2 for n in r["cache off"][1:])
         and r["cache off"][3] <= r["cache off"][1] + 1),
        ("§4 ablation", "an aligned key keeps exactly one copy",
         lambda r: r["aligned"] == [1, 1, 1, 1]),
    ),
    *_rows(
        "ablation_coverage",
        ("§7", "success tracks the disclosed fraction within 0.25",
         lambda r: all(abs(r[int(c * 100)] - c) < 0.25 for c in COVERAGES)),
        ("§7", "a 90% dump wins more often than a 10% dump", lambda r: r[90] > r[10]),
    ),
    *_rows(
        "ablation_swap",
        ("§4 ablation", "reclaim evicts pages and the key reaches swap at baseline",
         lambda r: r["baseline"]["pages evicted"] > 0
         and r["baseline"]["swap attack wins"] == 1),
        ("§4 ablation", "mlock keeps the key page off swap",
         lambda r: r["aligned+mlocked (library)"]["swap attack wins"] == 0
         and r["integrated"]["swap attack wins"] == 0),
        ("§4 ablation", "other memory still swaps under mlock",
         lambda r: r["aligned+mlocked (library)"]["pages evicted"] > 0),
    ),
    *_rows(
        "ablation_coredump",
        ("§1.2 ablation", "a core exposes the key at every software level",
         lambda r: all(r[level]["key exposed"] == 1
                       for level in ("none", "kernel", "integrated"))),
        ("§1.2 ablation", "an integrated core holds exactly the one page (3 copies)",
         lambda r: r["integrated"]["key copies in core"] == 3),
        ("§1.2 ablation", "a baseline core holds more copies than an integrated one",
         lambda r: r["none"]["key copies in core"] > r["integrated"]["key copies in core"]),
        ("§1.2 ablation", "the hardware vault keeps the key out of the core",
         lambda r: r["hardware"]["key exposed"] == 0),
    ),
]


def failed_claims(workload_name: str, result) -> List[str]:
    return [claim.label for claim in CLAIMS
            if claim.workload == workload_name and not claim.holds(result)]


def render(workload_name: str, text: str, failed: List[str]) -> str:
    """Write one workload's series and claim verdicts to
    ``benchmarks/results/<workload>.txt``; return the path."""
    verdicts = "\n".join(
        f"  [{'FAIL' if claim.label in failed else 'ok'}] {claim.label}"
        for claim in CLAIMS if claim.workload == workload_name
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{workload_name}.txt"
    path.write_text(
        f"=== {workload_name} (scale={SCALE.name}) ===\n{text}\n\nclaims:\n{verdicts}\n"
    )
    return str(path)


@pytest.mark.parametrize("workload_name", list(WORKLOADS))
def test_claims(workload_name):
    result, text = WORKLOADS[workload_name]()
    failed = failed_claims(workload_name, result)
    path = render(workload_name, text, failed)
    assert not failed, f"claims that do not hold (see {path}):\n" + "\n".join(failed)


def test_every_workload_has_claims():
    assert {claim.workload for claim in CLAIMS} == set(WORKLOADS)
    labels = [claim.label for claim in CLAIMS]
    assert len(labels) == len(set(labels))


# ----------------------------------------------------------------------
# Seeded regressions: switch one countermeasure off, a named claim fails
# ----------------------------------------------------------------------
@pytest.mark.parametrize("level, switch, claim", [
    (KERNEL, "kernel_zero", "Figs 13-14: kernel: nothing unallocated at any step"),
    (LIBRARY, "lib_align",
     "Figs 11-12: library: a constant <=5 allocated copies, the same as application"),
], ids=["kernel-without-zeroing", "library-without-alignment"])
def test_seeded_regression_fails_a_named_claim(monkeypatch, level, switch, claim):
    # The timelines run in this process, so the patched table is the
    # one their simulations read.
    policy = protection.policy_for(level)
    monkeypatch.setitem(protection._POLICIES, level,
                        dataclasses.replace(policy, **{switch: False}))
    result, _ = fig09_16_ssh_solution_timelines()
    assert claim in failed_claims("fig09_16_ssh_solution_timelines", result)
