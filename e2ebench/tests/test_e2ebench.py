"""Tests of the end-to-end benchmark itself.

Run from the repository root: ``python3 -m pytest e2ebench/tests -q``.
"""

from __future__ import annotations

import gc
import importlib
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from e2ebench import bench, hostspeed, snapshot, stats, tracing, workloads
from repro.analysis.parallel import derive_seed
from repro.analysis.runall import REPRO_ROOT, run_all

ROOT = Path(__file__).resolve().parents[2]


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def test_tail_needs_ten_samples_beyond_it():
    assert stats.tail(list(range(100)), 90) == 89
    assert stats.tail(list(range(99)), 90) is None
    assert stats.tail(list(range(1000)), 99) == 989
    assert stats.tail(list(range(999)), 99) is None
    assert stats.samples_beyond(40, 75) == 10


def test_spread_is_interquartile_share_of_median():
    assert stats.spread([10.0] * 10) == 0.0
    summary = stats.summarize([1.0, 2.0, 3.0, 4.0, 5.0])
    assert summary["median"] == 3.0
    assert summary["spread"] == pytest.approx((summary["q3"] - summary["q1"]) / 3.0)


# ----------------------------------------------------------------------
# host-speed scaling
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self, *ticks: float) -> None:
        self.ticks = list(ticks)

    def __call__(self) -> float:
        return self.ticks.pop(0)


def test_slowdown_is_the_median_reference_time_over_nominal():
    reference = hostspeed.Reference(clock=FakeClock(0, 0.001, 5, 5.003, 9, 9.002))
    assert reference.sample() == pytest.approx([0.001, 0.003, 0.002])
    assert reference.median_ms() == pytest.approx(2.0)
    nominal = hostspeed.REFERENCE_S
    assert hostspeed.Reference.slowdown([nominal] * 3 + [2 * nominal] * 4) == 2


def test_reference_work_triggers_no_collection():
    hostspeed.reference_work()
    before = gc.get_count()
    hostspeed.reference_work()
    assert gc.get_count() == before


# ----------------------------------------------------------------------
# tracing
# ----------------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    tracer = tracing.Tracer(targets=(), clock=FakeClock(0, 1, 2, 3, 5, 6, 7, 10))
    tracer.enter()            # op        [0, 10]
    tracer.enter()            #  a        [1, 5]
    tracer.enter()            #   b       [2, 3]
    tracer.exit("b")
    tracer.exit("a")
    tracer.enter()            #  a again  [6, 7]
    tracer.exit("a")
    tracer.exit("op")
    assert tracer.self_s == {"b": 1, "a": 3 + 1, "op": 10 - 4 - 1}
    assert sum(tracer.self_s.values()) == 10


def _target_bindings():
    """Every (holder, attribute) a target can be reached through."""
    bindings = {}
    for target in tracing.TARGETS:
        module = importlib.import_module(target.module)
        *path, name = target.qualname.split(".")
        holder = module
        for part in path:
            holder = getattr(holder, part)
        original = vars(holder)[name]
        holders = [holder] + [
            loaded for loaded_name, loaded in sys.modules.items()
            if loaded_name.startswith("repro.") and vars(loaded).get(name) is original
        ]
        for each in holders:
            bindings[(id(each), name)] = (each, name, original)
    return bindings


def test_install_wraps_every_binding_and_restore_puts_them_back():
    before = _target_bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for holder, name, original in before.values():
            assert vars(holder)[name] is not original, (holder, name)
        # By-name imports are wrapped too, not only the defining module.
        import repro.apps.sshd as sshd
        import repro.ssl.d2i as d2i
        assert sshd.d2i_privatekey is d2i.d2i_privatekey
    finally:
        tracer.restore()
    for holder, name, original in before.values():
        assert vars(holder)[name] is original, (holder, name)


def test_untraced_run_installs_no_wrapper(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an untraced run built a tracer")

    before = _target_bindings()
    monkeypatch.setattr(tracing, "Tracer", refuse)
    run = bench.measure("serve", seed=3, seconds=math.inf, max_blocks=1)
    assert run.failed == 0 and run.layers == {}
    for holder, name, original in before.values():
        assert vars(holder)[name] is original


@pytest.mark.parametrize("name, blocks, layers", [
    ("taint", 2, ("sanitizer.on_write_ms", "sanitizer.report_ms",
                  "ssl.rsa_private_operation_ms", "apps.handle_request_ms")),
    ("analyze", 1, ("analysis.ir_load_ms", "analysis.keylint_ms",
                    "analysis.keyflow_ms", "analysis.keystate_ms",
                    "analysis.keycount_ms", "analysis.keyrecon_ms",
                    "analysis.keyspan_ms", "analysis.sarif_ms")),
])
def test_traced_run_restores_and_accounts_for_each_operation(name, blocks, layers):
    before = _target_bindings()
    run = bench.measure(name, seed=3, seconds=math.inf, trace=True, max_blocks=blocks)
    for holder, attribute, original in before.values():
        assert vars(holder)[attribute] is original
    assert run.failed == 0
    per_layer = run.per_layer()
    accounted = sum(per_layer[f"{t.layer}_ms"] for t in tracing.TARGETS)
    assert accounted + per_layer["trace.unattributed_ms"] == pytest.approx(
        per_layer["trace.op_span_ms"]
    )
    assert per_layer["trace.op_span_ms"] * len(run.ops) == pytest.approx(
        run.measured_s * 1e3, rel=0.05
    )
    for layer in layers:
        assert per_layer[layer] > 0, layer


def test_tracing_overhead_is_the_traced_minus_untraced_median():
    untraced = bench.measure("serve", seed=4, seconds=math.inf, max_blocks=6)
    traced = bench.measure("serve", seed=4, seconds=math.inf, trace=True, max_blocks=6)
    overhead = traced.per_layer()["trace.op_p50_ms"] - untraced.end_to_end()["op_p50_ms"]
    # Wrapping costs something, but nothing like a whole session.
    assert -0.5 * untraced.end_to_end()["op_p50_ms"] < overhead
    assert overhead < untraced.end_to_end()["op_p50_ms"]


# ----------------------------------------------------------------------
# exact counts and seeding
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["serve", "sweep"])
def test_exact_counts_repeat_for_a_seed(name):
    blocks = workloads.WORKLOADS[name].exact_blocks
    first = bench.measure(name, seed=5, seconds=math.inf, max_blocks=blocks)
    second = bench.measure(name, seed=5, seconds=math.inf, trace=True, max_blocks=blocks)
    assert first.exact is not None and first.exact == second.exact
    assert first.exact["apps.sessions"] > 0
    assert first.exact["clock.rsa_private_us"] > 0


def test_exact_analysis_counts_cover_the_whole_snapshot():
    first = bench.measure("analyze", seed=5, seconds=math.inf, max_blocks=1)
    second = bench.measure("analyze", seed=6, seconds=math.inf, trace=True, max_blocks=1)
    assert first.failed == 0 and first.exact == second.exact
    assert first.exact["analysis.functions"] == snapshot.PINNED_FUNCTIONS
    assert first.exact["analysis.findings"] > 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_reaches_the_stream(name):
    def labels(seed):
        workload = workloads.make(name, seed)
        if name != "sweep":
            workload.setup()
        stream = workload.steps()
        return [next(stream).label for _ in range(30)]

    assert labels(1) == labels(1)
    assert labels(1) != labels(2)


def test_sweep_specs_are_new_and_cover_the_grid():
    workload = workloads.make("sweep", 8)
    blocks = workload.specs()
    first, second = next(blocks), next(blocks)
    cells = sorted((s.kind, s.conns, s.dirs) for s in first)
    assert cells == sorted(workloads.sweep_cells())
    seeds = {derive_seed(spec) for spec in first + second}
    assert len(seeds) == len(first) + len(second)


def test_attack_recorder_restores_the_methods():
    before = {name: vars(workloads.Simulation)[name]
              for name in workloads.AttackRecorder.METHODS}
    workload = workloads.make("sweep", 9)
    spec = min((s for s in next(workload.specs()) if s.kind == "ext2"),
               key=lambda s: s.conns)
    outcomes, failures = workload.run_spec(spec)
    assert not failures and len(workload._attacks) == 1
    sim, attack, seconds = workload._attacks[0]
    assert outcomes[0].copies == attack.total_copies and seconds > 0
    for name, method in before.items():
        assert vars(workloads.Simulation)[name] is method


# ----------------------------------------------------------------------
# oracles
# ----------------------------------------------------------------------
def test_analyze_groups_split_the_snapshot():
    workload = workloads.make("analyze", 8)
    workload.setup()
    files = [pair for group in workload.groups.values() for pair in group]
    assert len(files) == len(set(files)) == snapshot.PINNED_FILES
    assert workload.warmup_group in workload.groups


def test_snapshot_report_matches_the_live_tree_at_pin_time(tmp_path):
    pinned = snapshot.extract(tmp_path)
    live = {path.relative_to(REPRO_ROOT): path.read_bytes()
            for path in REPRO_ROOT.rglob("*.py")}
    if live != {path.relative_to(pinned): path.read_bytes()
                for path in pinned.rglob("*.py")}:
        pytest.skip("src/repro has changed since the snapshot was pinned")

    def reports(root):
        result = run_all(paths=[root])
        text = json.dumps(result.to_json_dict(), sort_keys=True) + json.dumps(
            result.to_sarif(), sort_keys=True)
        return text.replace(str(root), "<root>")

    assert reports(pinned) == reports(REPRO_ROOT)


def test_naive_count_counts_overlaps():
    assert workloads.naive_count(b"aaaa", b"aa") == 3
    assert workloads.naive_count(b"abc", b"x") == 0


def test_sweep_oracle_rejects_a_wrong_count():
    workload = workloads.make("sweep", 10)
    spec = next(s for s in next(workload.specs()) if s.kind == "ntty")
    workload.run_spec(spec)
    sim, attack, _ = workload._attacks[0]
    assert workloads.recount(sim, "ntty", attack)
    attack.counts["p"] += 1
    assert not workloads.recount(sim, "ntty", attack)


def test_analyze_oracle_rejects_a_changed_log():
    workload = workloads.make("analyze", 12)
    workload.setup()
    stream = workload.steps()
    op, read = next(stream), next(stream)
    assert op.check(op.run())
    text = read.run()
    assert read.check(text) and read.check(read.run())
    assert not read.check(text + "\n")
    assert not read.check("{}")


def test_serve_oracle_rejects_a_wrong_scan():
    workload = workloads.make("serve", 11)
    workload.setup()
    sim = workload.sims[0]
    step = workload.read_step(sim, checked=True)
    report = step.run()
    assert step.check(report)
    report.matches.pop()
    assert not step.check(report)


# ----------------------------------------------------------------------
# command line
# ----------------------------------------------------------------------
def test_result_line_carries_every_metric():
    completed = subprocess.run(
        [sys.executable, str(ROOT / "e2ebench" / "run.py"), "--workload", "serve",
         "--seed", "1", "--seconds", "0.5", "--trace", "0"],
        capture_output=True, text=True, check=True, timeout=300,
    )
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == {
        name: value["unit"] for name, value in result["metrics"].items()
    }
    assert [m["name"] for m in declared["per_layer"]] == [n for n, _ in bench.PER_LAYER]


def test_without_program_sources_it_fails_without_a_result(tmp_path):
    shutil.copytree(ROOT / "e2ebench", tmp_path / "e2ebench")
    completed = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "serve",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert "correct" not in completed.stdout
