"""Soak campaigns: sustained fault storms across crash/restart
generations, with steady-state invariants checked every generation.

A chaos schedule (:mod:`repro.faults.campaign`) is one server life; a
*soak schedule* is one **machine** surviving many server lives.  Each
schedule composes per-generation random :class:`FaultPlan`s — shifted
into the generation's index band with :meth:`FaultPlan.shift` and
unioned with :meth:`FaultPlan.compose`, since the injector's tick
counters are cumulative over the machine's lifetime — then drives
``generations`` rounds of

    workload under faults → ``kill -9`` the whole service tree →
    post-mortem key audit of the corpse → supervised restart with a
    fresh key (:class:`~repro.faults.supervisor.Supervisor`)

checking after every round that the machine has reached a sane steady
state:

* **no cross-incarnation key bytes anywhere** — the post-mortem audit
  (sparse scan + KeySan census) finds nothing of any dead generation;
* **swap free-slot heap consistent with the slot bitmap**
  (:meth:`SwapDevice.check_consistency` — torn writes must leave the
  accounting exact);
* **the buddy allocator conserves frames** — free-frame count does not
  drift downward across generations (no leak growth) and its internal
  invariants hold;
* **the shadow map census matches the live key** — every tainted byte
  belongs to the incarnation currently serving.

The first bullet is the paper's claim under the harshest lifecycle:
at INTEGRATED protection it holds through every storm, while at NONE
the very same schedules leak the corpse's key through freed frames and
the page cache (the campaign's teeth).  Everything derives from the
soak seed (SHA-256 per schedule); reports carry only virtual-clock
times, so a report is byte-identical for a fixed seed at any worker
count.  The level loop, report envelope and worker pool are the ones
chaos uses (:class:`~repro.faults.campaign.Campaign`).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.analysis.parallel import ProgressFn
from repro.core.protection import ProtectionLevel
from repro.core.simulation import Simulation, SimulationConfig
from repro.crypto.randsrc import DeterministicRandom, hash_seed
from repro.errors import AllocatorStateError, ConnectionRejectedError, ReproError, SwapError
from repro.faults.campaign import Campaign, Record
from repro.faults.injector import FaultInjector
from repro.faults.plan import FAULT_SITES, SITE_HORIZONS, FaultPlan
from repro.faults.supervisor import Supervisor
from repro.sanitizer.shadow import MAX_TAG_ID

#: Half-open probes per generation before a degraded machine gives up
#: on that generation (it tries again next generation).
MAX_PROBES_PER_GENERATION = 4

#: Free-frame drift (in frames) tolerated across generations before
#: the frame-conservation invariant is declared violated.  Covers
#: legitimate slack — page-cache residency differences, per-CPU hot
#: list contents — while catching any real per-generation leak, which
#: compounds.
FRAME_LEAK_SLACK = 64

#: Secrets registered per key incarnation (d, p, q, dmp1, dmq1, iqmp,
#: pem) — bounds how many generations one machine's KeySan can tag.
_TAGS_PER_KEY = 7


def check_generations(generations: int) -> None:
    """Reject a generation count one machine's KeySan cannot tag."""
    if generations <= 0:
        raise ValueError("generations must be positive")
    if (generations + 1) * _TAGS_PER_KEY > MAX_TAG_ID:
        raise ValueError(
            f"{generations} generations need more than {MAX_TAG_ID} "
            f"KeySan tags; reduce generations"
        )


def compose_storm(
    rng: DeterministicRandom, generations: int, faults_per_generation: int
) -> FaultPlan:
    """Build one multi-generation fault storm.

    Each generation's sub-plan is drawn from its own forked stream
    (stateless derivation — draw order cannot perturb siblings) against
    the per-site horizons, then shifted into the generation's band of
    the cumulative tick space.  ``compose`` unions the bands; because
    composition is a set union, the storm is independent of the order
    the generations were drawn in.
    """
    plans = [
        FaultPlan.random(
            rng.fork_stream(f"gen{generation}"), faults_per_generation
        ).shift(
            {site: generation * SITE_HORIZONS[site] for site in FAULT_SITES}
        )
        for generation in range(generations)
    ]
    return FaultPlan.compose(plans)


def run_soak_schedule(
    server: str,
    level: ProtectionLevel,
    base_seed: int,
    index: int,
    generations: int = 5,
    faults_per_generation: int = 3,
    connections: int = 4,
    pressure_pages: int = 6,
    memory_mb: int = 8,
    key_bits: int = 256,
) -> Dict[str, object]:
    """Run one soak schedule; return its JSON-ready record."""
    check_generations(generations)
    seed = hash_seed("repro-soak-v1", base_seed, server, level.value, index)
    storm = compose_storm(
        DeterministicRandom(seed).fork_stream("soak-plan"),
        generations,
        faults_per_generation,
    )
    sim = Simulation(
        SimulationConfig(
            server=server,
            level=level,
            seed=seed,
            memory_mb=memory_mb,
            key_bits=key_bits,
            taint=True,
            fault_plan=storm,
            incarnation_tags=True,
        )
    )
    injector = sim.faults
    assert isinstance(injector, FaultInjector)
    supervisor = Supervisor(
        sim, rng=DeterministicRandom(seed).fork_stream("supervisor")
    )
    kernel = sim.kernel
    keysan = sim.keysan
    assert keysan is not None

    unhandled: List[str] = []
    violations: List[str] = []
    gen_records: List[Dict[str, object]] = []
    free_baseline: Optional[int] = None

    try:
        supervisor.start_service()
    except Exception as exc:  # pragma: no cover - a wedged machine
        unhandled.append(f"boot:{type(exc).__name__}: {exc}")

    for generation in range(generations):
        if unhandled:
            break
        record: Dict[str, object] = {
            "generation": generation,
            "incarnation": sim.incarnation,
        }
        # A machine degraded by a failed restart keeps probing: wait
        # out the breaker cooldown on virtual time, one half-open
        # attempt per probe.
        probes = 0
        while supervisor.detect_failure() and probes < MAX_PROBES_PER_GENERATION:
            probes += 1
            try:
                if supervisor.probe():
                    break
            except Exception as exc:
                unhandled.append(
                    f"gen{generation}:probe:{type(exc).__name__}: {exc}"
                )
                break
        record["probes"] = probes

        connections_ok = 0
        rejected = 0
        refused = 0
        if not supervisor.detect_failure():
            for conn_index in range(connections):
                if not supervisor.admit():
                    refused += 1
                    continue
                try:
                    if server == "openssh":
                        sim.server.run_connection_cycle(24 * 1024)
                    else:
                        sim.server.handle_request(24 * 1024)
                    connections_ok += 1
                except ConnectionRejectedError:
                    rejected += 1
                except ReproError:
                    rejected += 1
                except Exception as exc:
                    unhandled.append(
                        f"gen{generation}:conn{conn_index}:"
                        f"{type(exc).__name__}: {exc}"
                    )
                    break
                if conn_index == connections // 2 and pressure_pages:
                    # Mid-generation swap pressure so the swap fault
                    # sites (and slot accounting under torn writes)
                    # actually tick.
                    try:
                        kernel.reclaim_pages(pressure_pages)
                    except Exception as exc:
                        unhandled.append(
                            f"gen{generation}:pressure:"
                            f"{type(exc).__name__}: {exc}"
                        )
                        break
        record["connections_ok"] = connections_ok
        record["rejected"] = rejected
        record["refused"] = refused
        if unhandled:
            gen_records.append(record)
            break

        # Crash the whole service tree (kill -9, nothing cleans up),
        # audit the corpse, then bring up the next incarnation under
        # the restart policy.  A machine that never recovered from a
        # degraded state has nothing to crash — it just re-checks the
        # steady-state invariants and tries again next generation.
        try:
            if not supervisor.detect_failure():
                record["killed_pids"] = supervisor.crash_service()
                audit = supervisor.audit_corpse()
                record["audit"] = audit.to_dict()
                restart = supervisor.restart_service()
                record["restart"] = restart
            else:
                record["skipped"] = True
        except Exception as exc:
            unhandled.append(
                f"gen{generation}:recover:{type(exc).__name__}: {exc}"
            )
            gen_records.append(record)
            break

        # ------------------------------------------------------------------
        # steady-state invariants (must hold at EVERY protection level)
        # ------------------------------------------------------------------
        invariants: Dict[str, object] = {}
        try:
            kernel.swap.check_consistency()
            invariants["swap_consistent"] = True
        except SwapError as exc:
            invariants["swap_consistent"] = False
            violations.append(f"gen{generation}:swap:{exc}")
        try:
            kernel.buddy.check_invariants()
            invariants["buddy_consistent"] = True
        except AllocatorStateError as exc:
            invariants["buddy_consistent"] = False
            violations.append(f"gen{generation}:buddy:{exc}")
        free_frames = kernel.buddy.free_frames()
        invariants["free_frames"] = free_frames
        if free_baseline is None:
            free_baseline = free_frames
        elif free_baseline - free_frames > FRAME_LEAK_SLACK:
            violations.append(
                f"gen{generation}:frames:free fell {free_baseline - free_frames} "
                f"frames below the first-generation baseline"
            )
        invariants["swap_free_slots"] = kernel.swap.free_slots()

        # ------------------------------------------------------------------
        # leak metrics (zero at INTEGRATED, the teeth at NONE)
        # ------------------------------------------------------------------
        live_prefix = sim.incarnation_prefix(sim.incarnation)
        live_bytes = sum(
            sum(tags.values())
            for tags in keysan.census_by_prefix(live_prefix).values()
        )
        total_tainted = keysan.shadow.total_tainted()
        cross_bytes = total_tainted - live_bytes
        audit_dict = record.get("audit")
        leaks = {
            "cross_incarnation_taint_bytes": cross_bytes,
            "audit_taint_bytes": (
                audit_dict["taint_bytes"] if audit_dict else 0
            ),
            "audit_ram_hits": audit_dict["ram_hits"] if audit_dict else 0,
            "audit_swap_hits": audit_dict["swap_hits"] if audit_dict else 0,
            "audit_freed_frame_hits": (
                audit_dict["freed_frame_hits"] if audit_dict else 0
            ),
        }
        invariants["shadow_census_matches_live"] = cross_bytes == 0
        record["invariants"] = invariants
        record["leaks"] = leaks
        record["clean"] = all(count == 0 for count in leaks.values())
        gen_records.append(record)

    restarts = [
        record["restart"]
        for record in gen_records
        if isinstance(record.get("restart"), dict)
    ]
    latencies = [r["latency_us"] for r in restarts]
    return {
        "index": index,
        "seed": seed,
        "storm": storm.to_dict(),
        "fired": injector.fired_events(),
        "generations": gen_records,
        "unhandled": unhandled,
        "invariant_violations": violations,
        "restarts": supervisor.restarts,
        "refused_connections": supervisor.refused_connections,
        "degraded_generations": sum(
            1
            for record in gen_records
            if record.get("skipped") or (
                isinstance(record.get("restart"), dict)
                and not record["restart"]["started"]
            )
        ),
        "restart_latency_us": {
            "count": len(latencies),
            "total": round(sum(latencies), 3),
            "max": round(max(latencies), 3) if latencies else 0.0,
        },
        "clean": bool(gen_records)
        and all(record.get("clean", False) for record in gen_records),
        "supervisor_events": supervisor.events,
    }


def _summarize(records: List[Record]) -> Record:
    generations = [g for r in records for g in r["generations"]]
    audited = [g["leaks"] for g in generations if "leaks" in g]
    latencies = [r["restart_latency_us"] for r in records]
    return {
        "schedules": len(records),
        "generations": len(generations),
        "faults_fired": sum(len(r["fired"]) for r in records),
        "connections_ok": sum(g.get("connections_ok", 0) for g in generations),
        "rejected": sum(g.get("rejected", 0) for g in generations),
        "refused_connections": sum(r["refused_connections"] for r in records),
        "restarts": sum(r["restarts"] for r in records),
        "degraded_generations": sum(
            r["degraded_generations"] for r in records
        ),
        "unhandled": sum(len(r["unhandled"]) for r in records),
        "invariant_violations": sum(
            len(r["invariant_violations"]) for r in records
        ),
        "leak_schedules": sum(0 if r["clean"] else 1 for r in records),
        "cross_incarnation_taint_bytes": sum(
            leaks["cross_incarnation_taint_bytes"] for leaks in audited
        ),
        "audit_leaks": sum(
            leaks["audit_ram_hits"] + leaks["audit_swap_hits"]
            + leaks["audit_freed_frame_hits"]
            for leaks in audited
        ),
        "restart_latency_us": {
            "count": sum(l["count"] for l in latencies),
            "total": round(sum(l["total"] for l in latencies), 3),
            "max": round(max((l["max"] for l in latencies), default=0.0), 3),
        },
    }


SOAK = Campaign(
    name="soak-v1",
    schedule=run_soak_schedule,
    summarize=_summarize,
    violations="invariant_violations",
    statement=(
        "across every crash/restart generation of every fault "
        "storm, no byte of any dead incarnation's key survives "
        "anywhere (RAM, freed frames, swap, page cache), and "
        "the allocator/swap steady-state invariants hold"
    ),
)


def run_soak(
    server: str = "openssh",
    levels: Optional[Iterable[ProtectionLevel]] = None,
    seed: int = 42,
    schedules: int = 50,
    generations: int = 5,
    faults_per_generation: int = 3,
    connections: int = 4,
    pressure_pages: int = 6,
    memory_mb: int = 8,
    key_bits: int = 256,
    workers: int = 1,
    progress: Optional[ProgressFn] = None,
) -> Dict[str, object]:
    """Run ``schedules`` soak schedules at every level over ``workers``
    processes; return the deterministic campaign report.  Each
    schedule's seed depends only on (campaign seed, server, level,
    index), so the report is byte-identical for any ``workers`` value.
    """
    check_generations(generations)
    knobs = dict(
        generations=generations,
        faults_per_generation=faults_per_generation,
        connections=connections,
        pressure_pages=pressure_pages,
        memory_mb=memory_mb,
        key_bits=key_bits,
    )
    return SOAK.run(
        server, levels, seed, schedules, knobs,
        workers=workers, progress=progress,
    )


#: Exit-status predicate of a soak report (:meth:`Campaign.ok`).
soak_ok = SOAK.ok
