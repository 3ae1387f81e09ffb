"""Measure one workload: set-up, timed steps, oracles, metrics.

End-to-end metrics come from untraced runs.  A traced run wraps the
program's layer boundaries (:mod:`e2ebench.tracing`) and reports each
layer's self time per operation instead, together with the exact work
counters, which are taken over a fixed prefix of the stream so that they
repeat exactly for a given seed whatever the machine's speed.

Every time the runner reports is scaled to a nominal host speed by the
reference work it times around each step (:mod:`e2ebench.hostspeed`).
"""

from __future__ import annotations

import gc
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from e2ebench import hostspeed, stats, tracing, workloads
from repro.crypto import keycorpus

#: Set-up runs this many times per run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: ``(name, unit)`` of every end-to-end metric, in report order.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("read_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

#: ``(name, unit)`` of every per-layer metric of a traced run.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    tuple((f"{target.layer}_ms", "ms") for target in tracing.TARGETS)
    + (
        ("trace.unattributed_ms", "ms"),
        ("trace.op_span_ms", "ms"),
        ("trace.op_p50_ms", "ms"),
        ("host.reference_ms", "ms"),
    )
    + tuple((name, "us" if name.endswith("_us") else "count")
            for name in workloads.COUNTER_NAMES)
)


@dataclass
class Run:
    """Everything one measured run produced."""

    workload: str
    seed: int
    traced: bool
    setup_times: List[float] = field(default_factory=list)
    #: ``(stratum, seconds)`` of every operation and every read, scaled
    #: to the nominal host speed like every other time here.
    ops: List[Tuple[str, float]] = field(default_factory=list)
    reads: List[Tuple[str, float]] = field(default_factory=list)
    #: Time spent in timed steps, reads between operations included.
    measured_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    #: Exact counters over the first blocks (``None`` if not reached).
    exact: Optional[Dict[str, int]] = None
    #: Layer -> self seconds, during set-up and during the measured steps.
    setup_layers: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    tail_percentile: float = 90.0
    #: Median wall time of the host-speed reference over the run.
    reference_ms: float = 0.0

    @property
    def op_times(self) -> List[float]:
        return [seconds for _, seconds in self.ops]

    @property
    def read_times(self) -> List[float]:
        return [seconds for _, seconds in self.reads]

    @property
    def failed_op_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def end_to_end(self) -> Dict[str, float]:
        ops = self.op_times
        tail = stats.tail(ops, self.tail_percentile)
        if tail is None:
            print(
                f"e2ebench: only {stats.samples_beyond(len(ops), self.tail_percentile)} "
                f"operations beyond p{self.tail_percentile:g}; op_tail_ms is unsteady",
                file=sys.stderr,
            )
            tail = stats.percentile(ops, self.tail_percentile)
        return {
            "setup_s": statistics.median(self.setup_times),
            "ops_per_s": len(ops) / self.measured_s,
            "op_p50_ms": stats.stratified_median(self.ops) * 1e3,
            "op_tail_ms": tail * 1e3,
            "read_p50_ms": stats.stratified_median(self.reads) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    def per_layer(self) -> Dict[str, float]:
        per_op = 1e3 / len(self.ops)
        metrics = {
            f"{target.layer}_ms": self.layers.get(target.layer, 0.0) * per_op
            for target in tracing.TARGETS
        }
        roots = sum(self.layers.get(root, 0.0) for root in tracing.ROOT_LAYERS)
        metrics["trace.unattributed_ms"] = roots * per_op
        metrics["trace.op_span_ms"] = sum(self.layers.values()) * per_op
        metrics["trace.op_p50_ms"] = stats.stratified_median(self.ops) * 1e3
        metrics["host.reference_ms"] = self.reference_ms
        exact = self.exact or {}
        for name in workloads.COUNTER_NAMES:
            metrics[name] = exact.get(name, 0)
        return metrics


def _delta(after: Dict[str, int], before: Dict[str, int]) -> Dict[str, int]:
    return {name: after.get(name, 0) - before.get(name, 0)
            for name in workloads.COUNTER_NAMES}


def measure(
    name: str,
    seed: int,
    seconds: float,
    trace: bool = False,
    max_blocks: Optional[int] = None,
) -> Run:
    """Set ``name`` up, then run whole blocks of its stream until the
    loop has run for ``seconds`` (or ``max_blocks`` blocks ran)."""
    tracer = tracing.Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    try:
        return _measure(name, seed, seconds, tracer, max_blocks)
    finally:
        if tracer is not None:
            tracer.restore()


def _untraced(tracer: Optional[tracing.Tracer], work: Callable[[], object]):
    """Run bookkeeping or an oracle without charging its spans to a layer."""
    if tracer is None:
        return work()
    saved = dict(tracer.self_s)
    try:
        return work()
    finally:
        tracer.self_s = saved


def _take_layers(tracer: tracing.Tracer, slowdown: float, into: Dict[str, float]) -> None:
    """Move the tracer's self times, scaled by ``slowdown``, into ``into``."""
    for layer, seconds in tracer.self_s.items():
        into[layer] = into.get(layer, 0.0) + seconds / slowdown
    tracer.reset()


def _measure(name, seed, seconds, tracer, max_blocks) -> Run:
    clock = time.perf_counter
    reference = hostspeed.Reference(clock)
    workload = None
    run = Run(workload=name, seed=seed, traced=tracer is not None)
    for _ in range(SETUP_REPEATS):
        workload = None
        gc.collect()
        keycorpus.clear()  # every set-up pays the same cold keygen
        workload = workloads.make(name, seed)
        before = reference.sample()
        if tracer is not None:
            tracer.reset()
        started = clock()
        workload.setup()
        elapsed = clock() - started
        slowdown = reference.slowdown(before + reference.sample())
        run.setup_times.append(elapsed / slowdown)
        if tracer is not None:
            _take_layers(tracer, slowdown, run.setup_layers)
    # Set-up's garbage (sweep's warm-up machines) would otherwise still be
    # alive in the first step and set the run's peak RSS.
    gc.collect()
    run.tail_percentile = workload.tail_percentile
    baseline = _untraced(tracer, workload.counters)

    blocks = 0
    loop_started = clock()
    for step in workload.steps():
        run.attempted += 1
        ok = True
        inner_reads = len(workload.inner_reads)
        before = reference.sample()
        started = clock()
        if tracer is not None:
            tracer.enter()
        try:
            result = step.run()
        except Exception as exc:  # counted, reported, and the run goes on
            ok = False
            run.errors.append(f"{step.label}: {type(exc).__name__}: {exc}")
        finally:
            if tracer is not None:
                tracer.exit(step.kind)
        elapsed = clock() - started
        slowdown = reference.slowdown(before + reference.sample())
        (run.ops if step.kind == "op" else run.reads).append(
            (step.stratum, elapsed / slowdown))
        run.reads.extend((stratum, inner / slowdown)
                         for stratum, inner in workload.inner_reads[inner_reads:])
        run.measured_s += elapsed / slowdown
        if tracer is not None:
            _take_layers(tracer, slowdown, run.layers)
        if ok and step.check is not None:
            try:
                ok = bool(_untraced(tracer, lambda: step.check(result)))
            except Exception as exc:  # a crashing oracle is a failed check
                ok = False
                run.errors.append(f"{step.label}: oracle {type(exc).__name__}: {exc}")
            else:
                if not ok:
                    run.errors.append(f"{step.label}: oracle rejected the result")
        run.failed += not ok
        if workload.collect_garbage:
            gc.collect()
        if not step.block_end:
            continue
        blocks += 1
        if blocks == workload.exact_blocks:
            run.exact = _delta(_untraced(tracer, workload.counters), baseline)
        if clock() - loop_started >= seconds or (
            max_blocks is not None and blocks >= max_blocks
        ):
            break
    run.reference_ms = reference.median_ms()
    return run
