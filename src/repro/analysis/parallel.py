"""Deterministic parallel sweep engine for the attack experiments.

The paper's evaluation is thousands of *independent* machine runs:
every cell of Figures 1-4, 7, 17-18 averages 15-20 attacks, each on a
freshly booted machine.  This module expresses those grids as flat
lists of :class:`RunSpec` — one spec per (server, level, cell,
repetition) — and fans them out over a process pool.

Three properties the serial drivers lacked:

* **Collision-free seeding.**  Each run's seed is a hash of the *full*
  spec tuple (:func:`derive_seed`), not arithmetic over the cell
  parameters.  The old ``seed + 1000*rep + conns + dirs`` derivation
  re-ran the *same* machine whenever the directory grid step equalled
  the 1000-per-rep stride (rep=0/dirs=2000 == rep=1/dirs=1000), and
  aliased across cells via ``conns + dirs``.
* **Order independence.**  The seed depends only on the spec, so a
  sweep is byte-identical at any worker count: ``--workers 8`` and
  ``--workers 1`` produce the same cells.
* **Crash/timeout containment.**  A worker that dies or exceeds the
  deadline records a :class:`FailedRun` for its specs; the sweep
  finishes and reports the holes instead of hanging.

The engine merges outcomes back into the existing
:class:`~repro.analysis.experiments.Ext2SweepResult` /
:class:`~repro.analysis.experiments.NttySweepResult` types, which is
what every benchmark and CSV exporter already consumes.

:func:`run_specs` is the package's only way to fan runs out: the chaos
and soak campaigns (:mod:`repro.faults.campaign`) hand it their
schedules as jobs with their own runner.  It never starts more workers
than the process may use cores (:func:`available_cores`), so a
one-core host runs every job serially and starts no pool.
"""

from __future__ import annotations

import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor, TimeoutError as FutureTimeout
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.protection import ProtectionLevel
from repro.core.simulation import Simulation, SimulationConfig
from repro.crypto.randsrc import hash_seed
from repro.errors import WorkloadError

#: Spec kinds the engine knows how to execute.
RUN_KINDS = ("ext2", "ntty", "scp", "siege")

#: How the attack kinds analyze the disclosed bytes: ``exact`` is the
#: paper's verbatim pattern search; ``predict`` is the structural
#: attacker (:mod:`repro.attacks.predict`) that rebuilds the key from
#: derived fragments plus the public half.
ATTACKERS = ("exact", "predict")

#: Progress callback: (done, total, elapsed_s, eta_s).
ProgressFn = Callable[[int, int, float, float], None]


@dataclass(frozen=True)
class RunSpec:
    """One independent machine run — a single sample of one cell.

    ``conns``/``dirs`` carry the cell parameters (for the perf kinds
    they hold concurrency and transaction count); ``rep`` is the
    repetition index within the cell.  The spec is hashable and
    picklable, and :func:`derive_seed` maps it to the machine seed.
    """

    kind: str
    server: str
    level: str
    conns: int
    dirs: int
    rep: int
    base_seed: int
    memory_mb: int
    key_bits: int
    #: Dump analysis mode (``exact`` / ``predict``).  Deliberately NOT
    #: part of :func:`derive_seed`'s blob: the attacker choice changes
    #: how the disclosed bytes are read, not which machine is booted,
    #: so both attackers sample the *same* machines — and every
    #: pre-existing exact-mode seed stays byte-identical.
    attacker: str = "exact"

    def cell(self) -> Tuple[int, int]:
        return (self.conns, self.dirs)


@dataclass
class RunOutcome:
    """What one executed spec measured."""

    spec: RunSpec
    seed: int
    copies: int
    success: bool
    elapsed_s: float
    bytes_moved: int = 0


@dataclass
class FailedRun:
    """A spec that crashed, timed out, or was lost with its worker.

    ``attempts`` counts executions including retries; ``backoff_s`` is
    the total *simulated* backoff charged before giving up (recorded
    for the report, never slept — sleeping would make sweep wall-clock
    depend on the retry schedule).
    """

    spec: RunSpec
    error: str
    attempts: int = 1
    backoff_s: float = 0.0


#: First retry waits this long (simulated), doubling per attempt.
RETRY_BACKOFF_BASE_S = 0.05


def corpus_pairs(specs: Sequence[RunSpec]) -> List[Tuple[int, int]]:
    """Unique ``(key_bits, seed)`` pairs a spec list will boot with."""
    seen: Dict[Tuple[int, int], None] = {}
    for spec in specs:
        seen.setdefault((spec.key_bits, derive_seed(spec)), None)
    return list(seen)


def prewarm_corpus(specs: Sequence[RunSpec]) -> int:
    """Generate every key a spec list needs into the process-local
    key corpus (:mod:`repro.crypto.keycorpus`).

    Call this *before* :func:`run_specs` when the grid will be swept
    more than once in-process (regression benches, repeated CLI runs)
    or when timing serial against parallel: worker processes fork from
    this process and inherit the warm corpus, so neither side of the
    comparison pays Miller–Rabin keygen inside the timed region.
    Returns the number of keys actually generated.
    """
    from repro.crypto.keycorpus import prewarm

    return prewarm(corpus_pairs(specs))


def derive_seed(spec: RunSpec) -> int:
    """Collision-free 64-bit seed from the full spec tuple.

    The same derivation runs in the serial and the pooled path, so a
    sweep's cells are identical at any worker count; and no two specs
    of any grid share a seed (SHA-256, not parameter arithmetic).
    """
    return hash_seed(
        "repro-sweep-v1", spec.kind, spec.server, spec.level,
        spec.conns, spec.dirs, spec.rep, spec.base_seed,
        spec.memory_mb, spec.key_bits,
    )


# ----------------------------------------------------------------------
# spec builders
# ----------------------------------------------------------------------
def ext2_sweep_specs(
    server: str,
    connections: Sequence[int],
    directories: Sequence[int],
    repetitions: int,
    level: ProtectionLevel,
    seed: int,
    memory_mb: int,
    key_bits: int,
    attacker: str = "exact",
) -> List[RunSpec]:
    """Figure 1/2 grid: fresh machine per (N, D, repetition)."""
    return [
        RunSpec("ext2", server, level.value, conns, dirs, rep,
                seed, memory_mb, key_bits, attacker)
        for conns in connections
        for dirs in directories
        for rep in range(repetitions)
    ]


def ntty_sweep_specs(
    server: str,
    connections: Sequence[int],
    repetitions: int,
    level: ProtectionLevel,
    seed: int,
    memory_mb: int,
    key_bits: int,
    attacker: str = "exact",
) -> List[RunSpec]:
    """Figure 3/4/7/17/18 grid: fresh machine per (N, repetition)."""
    return [
        RunSpec("ntty", server, level.value, conns, 0, rep,
                seed, memory_mb, key_bits, attacker)
        for conns in connections
        for rep in range(repetitions)
    ]


def perf_spec(
    kind: str,
    level: ProtectionLevel,
    transactions: int,
    concurrent: int,
    seed: int,
    memory_mb: int,
    key_bits: int,
) -> RunSpec:
    """One scp-stress or Siege run as a spec (Figures 8, 19-20)."""
    if kind not in ("scp", "siege"):
        raise WorkloadError(f"unknown perf kind {kind!r}")
    server = "openssh" if kind == "scp" else "apache"
    return RunSpec(kind, server, level.value, concurrent, transactions, 0,
                   seed, memory_mb, key_bits)


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------
def execute_spec(spec: RunSpec) -> RunOutcome:
    """Boot one machine, run one attack/bench, return the sample."""
    if spec.kind not in RUN_KINDS:
        raise WorkloadError(f"unknown spec kind {spec.kind!r}")
    if spec.attacker not in ATTACKERS:
        raise WorkloadError(f"unknown attacker {spec.attacker!r}")
    seed = derive_seed(spec)
    if spec.kind in ("scp", "siege"):
        from repro.analysis.perfbench import run_scp_stress, run_siege

        runner = run_scp_stress if spec.kind == "scp" else run_siege
        metrics = runner(
            level=ProtectionLevel(spec.level),
            seed=seed,
            memory_mb=spec.memory_mb,
            key_bits=spec.key_bits,
            **(
                {"transfers": spec.dirs}
                if spec.kind == "scp" else {"transactions": spec.dirs}
            ),
            concurrent=spec.conns,
        )
        return RunOutcome(
            spec=spec, seed=seed, copies=0, success=True,
            elapsed_s=metrics.elapsed_s, bytes_moved=metrics.bytes_moved,
        )

    sim = Simulation(
        SimulationConfig(
            server=spec.server,
            level=ProtectionLevel(spec.level),
            seed=seed,
            memory_mb=spec.memory_mb,
            key_bits=spec.key_bits,
        )
    )
    sim.start_server()
    predict = spec.attacker == "predict"
    if spec.kind == "ext2":
        sim.cycle_connections(spec.conns)
        attack = (
            sim.run_ext2_predict(spec.dirs)
            if predict
            else sim.run_ext2_attack(spec.dirs)
        )
    else:
        if spec.conns:
            sim.hold_connections(spec.conns)
        attack = sim.run_ntty_predict() if predict else sim.run_ntty_attack()
    return RunOutcome(
        spec=spec,
        seed=seed,
        copies=attack.total_copies,
        success=attack.success,
        elapsed_s=attack.elapsed_s,
        bytes_moved=attack.disclosed_bytes,
    )


def available_cores() -> int:
    """Cores this process may run on (its affinity mask, where the OS
    has one): a pinned process cannot speed a pool up."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_chunk(
    indexed: List[Tuple[int, Any]], runner: Callable[[Any], Any] = execute_spec
) -> List[Tuple[int, bool, Any]]:
    """Worker entry point: run a chunk, never raise past one job.  Each
    entry is ``(index, True, result)`` or ``(index, False, error)``."""
    results: List[Tuple[int, bool, Any]] = []
    for index, job in indexed:
        try:
            results.append((index, True, runner(job)))
        except Exception as exc:  # recorded, not fatal to the chunk
            results.append((index, False, f"{type(exc).__name__}: {exc}"))
    return results


def stderr_progress(label: str) -> ProgressFn:
    """A progress callback that rewrites one status line on stderr."""

    def _report(done: int, total: int, elapsed_s: float, eta_s: float) -> None:
        sys.stderr.write(
            f"\r[{label}] {done}/{total} runs "
            f"({100.0 * done / total:.0f}%) "
            f"elapsed {elapsed_s:.1f}s eta {eta_s:.1f}s"
        )
        if done == total:
            sys.stderr.write("\n")
        sys.stderr.flush()

    return _report


def run_specs(
    specs: Sequence[Any],
    workers: int = 1,
    timeout_s: Optional[float] = None,
    progress: Optional[ProgressFn] = None,
    retries: int = 0,
    runner: Callable[[Any], Any] = execute_spec,
) -> Tuple[List[Any], List[FailedRun]]:
    """Execute every spec; return (outcomes by spec index, failures).

    ``outcomes[i]`` is ``None`` exactly when ``specs[i]`` appears in
    the failure list.  ``timeout_s`` bounds the whole sweep's wall
    clock: when it expires, still-pending specs are recorded as failed
    (``"timeout"``) instead of blocking forever on a wedged worker.
    Results are merged by spec index, so the outcome (and any result
    built from it) is identical for every ``workers`` value.
    ``workers`` is capped at :func:`available_cores`; at one worker
    the specs run in this process and no pool starts.

    ``retries`` re-runs failed specs up to that many extra times with
    exponential backoff (:data:`RETRY_BACKOFF_BASE_S`, doubling per
    attempt — *simulated*: recorded in the FailedRun, never slept).
    A spec's seed depends only on the spec, so a retried run that
    succeeds is byte-identical to a first-try success.  Retries share
    the sweep's global deadline; specs still failing after the last
    retry are reported with their attempt count.  ``runner`` replaces
    :func:`execute_spec`: the campaigns pass their schedule runner,
    tests inject flaky ones.  Any picklable spec and runner work.
    """
    if retries < 0:
        raise ValueError("retries must be non-negative")
    total = len(specs)
    outcomes: List[Any] = [None] * total
    if not total:
        return outcomes, []
    if workers > 1:
        workers = min(workers, available_cores())
    started = time.monotonic()
    deadline = started + timeout_s if timeout_s is not None else None

    def _tick(done: int) -> None:
        if progress is None or not done:
            return
        elapsed = time.monotonic() - started
        eta = elapsed / done * (total - done)
        progress(done, total, elapsed, eta)

    # One pool serves every pass: executor spawn (and the workers'
    # interpreter boot) is a per-sweep cost, not a per-attempt one.
    pool: Optional[ProcessPoolExecutor] = None

    def _one_pass(
        indexed: List[Tuple[int, Any]], report_progress: bool
    ) -> Dict[int, str]:
        """Run one attempt over ``indexed``; fill ``outcomes``, return
        the error string for every index that did not produce one.
        Serially, each spec is a chunk run here when its turn comes."""
        nonlocal pool
        if workers > 1 and pool is None:
            pool = ProcessPoolExecutor(max_workers=workers)
        size = 1 if pool is None else max(1, len(indexed) // (workers * 4))
        chunks = [
            indexed[start : start + size]
            for start in range(0, len(indexed), size)
        ]
        futures = [
            pool.submit(_run_chunk, chunk, runner) if pool else None
            for chunk in chunks
        ]
        errors: Dict[int, str] = {}
        done = 0
        crashed = False
        for future, chunk in zip(futures, chunks):
            remaining = None
            if deadline is not None:
                remaining = max(0.0, deadline - time.monotonic())
            try:
                if future is not None:
                    results = future.result(timeout=remaining)
                elif remaining == 0.0:
                    raise FutureTimeout
                else:
                    results = _run_chunk(chunk, runner)
                for slot, ok, value in results:
                    if ok:
                        outcomes[slot] = value
                    else:
                        errors[slot] = value
            except FutureTimeout:
                if future is not None:
                    future.cancel()
                for index, _spec in chunk:
                    errors[index] = "timeout"
            except Exception as exc:  # worker died (BrokenProcessPool, ...)
                crashed = True
                for index, _spec in chunk:
                    errors[index] = f"worker crashed: {type(exc).__name__}"
            done += len(chunk)
            if report_progress:
                _tick(done)
        if crashed:  # a broken executor cannot take new work
            pool.shutdown(wait=False, cancel_futures=True)
            pool = None
        return errors

    try:
        errors = _one_pass(list(enumerate(specs)), report_progress=True)
        attempts = 1
        backoff_s = 0.0
        for attempt in range(1, retries + 1):
            if not errors:
                break
            backoff_s += RETRY_BACKOFF_BASE_S * (2 ** (attempt - 1))
            retry_indexed = [(index, specs[index]) for index in sorted(errors)]
            errors = _one_pass(retry_indexed, report_progress=False)
            attempts += 1
    finally:
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
    failures = [
        FailedRun(specs[index], errors[index],
                  attempts=attempts, backoff_s=backoff_s)
        for index in sorted(errors)
    ]
    return outcomes, failures


# ----------------------------------------------------------------------
# merging
# ----------------------------------------------------------------------
def _cells_from(outcomes: Sequence[Optional[RunOutcome]]) -> Dict[Tuple[int, int], object]:
    """Group outcomes by cell and average them into SweepCells."""
    from repro.analysis.experiments import SweepCell

    grouped: Dict[Tuple[int, int], List[RunOutcome]] = {}
    for outcome in outcomes:
        if outcome is None:
            continue
        grouped.setdefault(outcome.spec.cell(), []).append(outcome)
    cells = {}
    for cell, samples in grouped.items():
        count = len(samples)
        cells[cell] = SweepCell(
            avg_copies=sum(s.copies for s in samples) / count,
            success_rate=sum(s.success for s in samples) / count,
            avg_elapsed_s=sum(s.elapsed_s for s in samples) / count,
            samples=count,
        )
    return cells


def merge_ext2(server, level, outcomes, failures):
    """Fold outcomes into an Ext2SweepResult (cells keyed (N, D))."""
    from repro.analysis.experiments import Ext2SweepResult

    result = Ext2SweepResult(server=server, level=level)
    result.cells.update(_cells_from(outcomes))
    result.failures.extend(failures)
    return result


def merge_ntty(server, level, outcomes, failures):
    """Fold outcomes into an NttySweepResult (cells keyed N)."""
    from repro.analysis.experiments import NttySweepResult

    result = NttySweepResult(server=server, level=level)
    for (conns, _), cell in _cells_from(outcomes).items():
        result.cells[conns] = cell
    result.failures.extend(failures)
    return result


def merge_perf(outcome: RunOutcome):
    """Rebuild PerfMetrics from one scp/siege outcome."""
    from repro.analysis.perfbench import PerfMetrics

    return PerfMetrics(
        transactions=outcome.spec.dirs,
        concurrent=outcome.spec.conns,
        elapsed_s=outcome.elapsed_s,
        bytes_moved=outcome.bytes_moved,
    )
