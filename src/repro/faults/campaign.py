"""Chaos campaigns: seeded fault schedules × protection levels, with
every post-fault machine state checked against the KeySan oracle.

One *schedule* is one machine: boot with the taint sanitizer attached,
attach a :class:`~repro.faults.injector.FaultInjector` carrying a
seeded random :class:`~repro.faults.plan.FaultPlan`, drive a fixed
connection workload (with a burst of swap pressure in the middle so
the swap sites actually tick), and record

* which faults fired, which connections were gracefully rejected, and
  whether *any* exception escaped the degradation paths (``unhandled``
  — the robustness failure mode chaos testing exists to find);
* the post-fault leak state straight from the taint oracle: tainted
  bytes in freed frames, on the swap device, and in the page cache;
* the oracle-vs-scanner cross-check, which must stay consistent no
  matter which control path the faults forced.

The headline invariant (the campaign's ``invariant`` block): at
INTEGRATED protection **no fault schedule** leaves tainted key bytes
in freed frames, swap slots, or the page cache, and no simulator
exception goes unhandled.  At lower levels the same faults *do* leak —
eviction-under-pressure spills the cached PEM, a failed child's heap
drains uncleared — which is the paper's point restated under failure.

Everything is derived from the campaign seed (SHA-256 per schedule, no
wall clock anywhere in the report), so the same seed reproduces the
identical report byte-for-byte.

:class:`Campaign` is the envelope chaos shares with soak
(:mod:`repro.faults.soak`): the level loop, the report header, the
``invariant`` block and the exit predicate.  Each campaign supplies
only its schedule runner, its per-level summary and the one summary
count that fails it.  Schedules fan out through
:func:`repro.analysis.parallel.run_specs`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Mapping, Optional

from repro.analysis.parallel import ProgressFn, run_specs
from repro.core.protection import ProtectionLevel
from repro.core.simulation import Simulation, SimulationConfig
from repro.crypto.randsrc import DeterministicRandom, hash_seed
from repro.errors import ConnectionRejectedError, ReproError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FAULT_SITES, FaultPlan

#: One schedule's JSON-ready record.
Record = Dict[str, object]

#: Leak categories the headline invariant quantifies over.
LEAK_KEYS = (
    "freed_tainted_frames",
    "swap_out_tainted",
    "pagecache_residue",
    "free_region_tainted_bytes",
    "swap_device_hits",
)


def _run_job(schedule: Callable[..., Record], knobs: Mapping, job) -> Record:
    """Pool entry point: run one ``(level, index)`` schedule."""
    level, index = job
    return schedule(level=level, index=index, **knobs)


@dataclass(frozen=True)
class Campaign:
    """One seeded campaign kind: ``schedule(server, level, base_seed,
    index, **knobs)`` runs one schedule, ``summarize`` folds a level's
    records, and a level fails on ``unhandled`` or ``violations``."""

    name: str
    schedule: Callable[..., Record]
    summarize: Callable[[List[Record]], Record]
    violations: str
    statement: str

    def run(
        self,
        server: str,
        levels: Optional[Iterable[ProtectionLevel]],
        seed: int,
        schedules: int,
        knobs: Dict[str, object],
        workers: int = 1,
        progress: Optional[ProgressFn] = None,
    ) -> Dict[str, object]:
        """Run ``schedules`` schedules at every level (default:
        INTEGRATED); return the deterministic report (a JSON-ready
        dict, no wall clock).  Records merge by index, so the report is
        byte-identical for any ``workers`` value.  A schedule that
        raises fails the whole campaign."""
        if schedules <= 0:
            raise ValueError("schedules must be positive")
        level_list = (
            list(levels) if levels is not None else [ProtectionLevel.INTEGRATED]
        )
        jobs = [(level, index) for level in level_list for index in range(schedules)]
        runner = functools.partial(
            _run_job, self.schedule, dict(knobs, server=server, base_seed=seed)
        )
        records, failures = run_specs(
            jobs, workers=workers, progress=progress, runner=runner
        )
        if failures:
            level, index = failures[0].spec
            raise RuntimeError(
                f"{self.name} schedule {index} at {level.value} failed: "
                f"{failures[0].error}"
            )
        report: Dict[str, object] = {
            "campaign": self.name,
            "server": server,
            "seed": seed,
            "schedules": schedules,
            **knobs,
            "fault_sites": list(FAULT_SITES),
            "levels": {},
        }
        for offset, level in zip(range(0, len(jobs), schedules), level_list):
            level_records = records[offset : offset + schedules]
            report["levels"][level.value] = {
                "summary": self.summarize(level_records),
                "schedules": level_records,
            }
        integrated = report["levels"].get(ProtectionLevel.INTEGRATED.value)
        if integrated is not None:
            summary = integrated["summary"]
            report["invariant"] = {
                "level": ProtectionLevel.INTEGRATED.value,
                "holds": (
                    summary["leak_schedules"] == 0
                    and summary["unhandled"] == 0
                    and summary[self.violations] == 0
                ),
                "statement": self.statement,
            }
        return report

    def ok(self, report: Dict[str, object]) -> bool:
        """Exit-status predicate: no unhandled exceptions and no
        ``violations`` at any level, and the INTEGRATED invariant (when
        that level ran) holds."""
        for level_data in report["levels"].values():  # type: ignore[union-attr]
            summary = level_data["summary"]
            if summary["unhandled"] or summary[self.violations]:
                return False
        invariant = report.get("invariant")
        return invariant is None or bool(invariant["holds"])


def run_schedule(
    server: str,
    level: ProtectionLevel,
    base_seed: int,
    index: int,
    faults_per_schedule: int = 6,
    connections: int = 6,
    pressure_pages: int = 8,
    memory_mb: int = 8,
    key_bits: int = 256,
) -> Dict[str, object]:
    """Run one fault schedule; return its JSON-ready record."""
    seed = hash_seed("repro-chaos-v1", base_seed, server, level.value, index)
    plan_rng = DeterministicRandom(seed).fork_stream("fault-plan")
    plan = FaultPlan.random(plan_rng, num_faults=faults_per_schedule)

    sim = Simulation(
        SimulationConfig(
            server=server,
            level=level,
            seed=seed,
            memory_mb=memory_mb,
            key_bits=key_bits,
            taint=True,
            fault_plan=plan,
        )
    )
    injector = sim.faults
    assert isinstance(injector, FaultInjector)

    handled: List[str] = []
    unhandled: List[str] = []
    connections_ok = 0
    rejected = 0
    server_started = False
    try:
        sim.start_server()
        server_started = True
    except ConnectionRejectedError as exc:
        rejected += 1
        handled.append(f"start:{type(exc).__name__}")
    except ReproError as exc:
        # Startup failure is a graceful outcome too: the listener
        # unwound itself (master exited, no half-initialised state).
        handled.append(f"start:{type(exc).__name__}")
    except Exception as exc:  # a wedged machine — the chaos finding
        unhandled.append(f"start:{type(exc).__name__}: {exc}")

    if server_started:
        for conn_index in range(connections):
            try:
                if server == "openssh":
                    sim.server.run_connection_cycle(24 * 1024)
                else:
                    sim.server.handle_request(24 * 1024)
                connections_ok += 1
            except ConnectionRejectedError as exc:
                rejected += 1
                handled.append(f"conn{conn_index}:{type(exc).__name__}")
            except Exception as exc:
                unhandled.append(
                    f"conn{conn_index}:{type(exc).__name__}: {exc}"
                )
                break
            if conn_index == connections // 2 and pressure_pages:
                # Mid-workload swap pressure so the swap fault sites
                # (and the mlock protection they test) actually tick.
                try:
                    sim.kernel.reclaim_pages(pressure_pages)
                except Exception as exc:
                    unhandled.append(
                        f"pressure:{type(exc).__name__}: {exc}"
                    )
                    break

    report = sim.taint_report()
    kinds = report.diagnostics_by_kind()
    leaks = {
        "freed_tainted_frames": kinds.get("freed-tainted-frame", 0),
        "swap_out_tainted": kinds.get("swap-out-tainted", 0),
        "pagecache_residue": kinds.get("pagecache-residue", 0),
        "free_region_tainted_bytes": report.by_region.get("free", 0),
        "swap_device_hits": sum(report.swap_hits.values()),
    }
    cross = report.cross_check(sim.scan())

    return {
        "index": index,
        "seed": seed,
        "plan": plan.to_dict(),
        "fired": injector.fired_events(),
        "server_started": server_started,
        "connections_ok": connections_ok,
        "rejected": rejected,
        "handled": handled,
        "unhandled": unhandled,
        "leaks": leaks,
        "clean": all(leaks[key] == 0 for key in LEAK_KEYS),
        "oracle_consistent": cross.consistent,
    }


def _summarize(records: List[Record]) -> Record:
    return {
        "schedules": len(records),
        "faults_fired": sum(len(r["fired"]) for r in records),
        "connections_ok": sum(r["connections_ok"] for r in records),
        "rejected": sum(r["rejected"] for r in records),
        "unhandled": sum(len(r["unhandled"]) for r in records),
        "leak_schedules": sum(0 if r["clean"] else 1 for r in records),
        "oracle_inconsistencies": sum(
            0 if r["oracle_consistent"] else 1 for r in records
        ),
        "leaks": {
            key: sum(r["leaks"][key] for r in records) for key in LEAK_KEYS
        },
    }


CHAOS = Campaign(
    name="chaos-v1",
    schedule=run_schedule,
    summarize=_summarize,
    violations="oracle_inconsistencies",
    statement=(
        "no fault schedule leaves tainted key bytes in freed "
        "frames, swap slots, or the page cache, and no simulator "
        "exception escapes the degradation paths"
    ),
)


def run_campaign(
    server: str = "openssh",
    levels: Optional[Iterable[ProtectionLevel]] = None,
    seed: int = 42,
    schedules: int = 200,
    faults_per_schedule: int = 6,
    connections: int = 6,
    pressure_pages: int = 8,
    memory_mb: int = 8,
    key_bits: int = 256,
    progress: Optional[ProgressFn] = None,
) -> Dict[str, object]:
    """Run ``schedules`` fault schedules at every level, serially;
    return the deterministic campaign report."""
    knobs = dict(
        faults_per_schedule=faults_per_schedule,
        connections=connections,
        pressure_pages=pressure_pages,
        memory_mb=memory_mb,
        key_bits=key_bits,
    )
    return CHAOS.run(server, levels, seed, schedules, knobs, progress=progress)


#: Exit-status predicate of a chaos report (:meth:`Campaign.ok`).
campaign_ok = CHAOS.ok
