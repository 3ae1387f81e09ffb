"""The ledger's gate: budget math over the static rows, committed rows,
CI wiring. The hot-loop rows' budget math is in
``test_parallel_bench_gate.py``."""

import importlib.util
import json
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

spec = importlib.util.spec_from_file_location(
    "ledger", REPO_ROOT / "tools" / "ledger.py"
)
ledger = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ledger)

STATIC_ROWS = ["keylint", "keyflow+keyrecon", "keystate", "keycount",
               "keyspan", "analyze"]
HOT_LOOPS = ["scan_256mb_full", "scan_apache_pool_16mb", "scan_incremental_16mb",
             "shadow_census_256mb", "taint_audit_16mb", "taint_audit_sessions_16mb",
             "serve_sessions_16mb", "taint_sessions_16mb", "keygen_cold_1024",
             "hardware_sessions_16mb", "age_memory_32mb"]


def row(name, best):
    return {"name": name, "best_seconds": best}


def gate(fresh, committed):
    return ledger.check_regression(fresh, {"rows": committed})


def committed_ledger():
    return json.loads(
        (REPO_ROOT / "BENCH_ledger.json").read_text(encoding="utf-8")
    )


class TestBudgetMath:
    """One budget for every row; a hot loop and a static layer are judged
    by the same rule (the hot loops alone: test_parallel_bench_gate)."""

    def test_within_budget_passes(self):
        assert gate([row("keyflow+keyrecon", 1.0)],
                    [row("keyflow+keyrecon", 1.0)]) == []
        # 20% + floor: the budget is 1.2 + 0.15 ≈ 1.35
        assert gate([row("keyflow+keyrecon", 1.34)],
                    [row("keyflow+keyrecon", 1.0)]) == []

    def test_regression_beyond_budget_fails(self):
        failures = gate([row("keyflow+keyrecon", 1.4)],
                        [row("keyflow+keyrecon", 1.0)])
        assert len(failures) == 1
        assert "keyflow+keyrecon" in failures[0]

    def test_floor_absorbs_noise_on_fast_layers(self):
        # 3x slower in relative terms, but inside the absolute floor
        assert gate([row("keylint", 0.15)], [row("keylint", 0.05)]) == []

    def test_new_layer_without_baseline_is_not_a_regression(self):
        assert gate([row("brand_new_row", 9.9)], [row("analyze", 1.0)]) == []

    def test_each_row_judged_independently(self):
        failures = gate(
            [row("analyze", 0.5), row("keygen_cold_1024", 5.0)],
            [row("analyze", 1.0), row("keygen_cold_1024", 0.1)],
        )
        assert len(failures) == 1
        assert "keygen_cold_1024" in failures[0]


class TestSpeedupPolicy:
    def test_minimum_speedup_is_two(self):
        assert ledger.MIN_SPEEDUP == 2.0
        assert (ledger.REGRESSION_RATIO, ledger.FLOOR_SECONDS) == (1.2, 0.15)

    def test_output_path_is_repo_root(self):
        """The trajectory tooling globs root BENCH_*.json."""
        assert ledger.DEFAULT_OUT == REPO_ROOT / "BENCH_ledger.json"


class TestHotLoops:
    def test_taint_sessions_row_is_emitted(self, monkeypatch):
        """The KeySan write-hook row runs with the other hot loops (the
        rest are stubbed out here; two sessions keep it quick)."""
        sessions = ledger.HOT_LOOPS["taint_sessions_16mb"]
        stubs = {name: lambda repeat: {"best_seconds": 0.1}
                 for name in ledger.HOT_LOOPS}
        stubs["taint_sessions_16mb"] = lambda repeat: sessions(repeat, 2)
        monkeypatch.setattr(ledger, "STATIC_ROWS", {})
        monkeypatch.setattr(ledger, "HOT_LOOPS", stubs)
        rows = {r["name"]: r for r in ledger.measure_rows(1)}
        assert list(rows) == HOT_LOOPS
        emitted = rows["taint_sessions_16mb"]
        assert emitted["best_seconds"] > 0
        assert emitted["sessions"] == 2
        assert emitted["events_matched"] > 0

    def test_serve_sessions_row_runs_without_keysan(self):
        """The same sessions with no sanitizer attached: the row the
        RSA private operation's cost shows in."""
        emitted = ledger.HOT_LOOPS["serve_sessions_16mb"](1, 2)
        assert emitted["best_seconds"] > 0
        assert emitted["sessions"] == 2
        assert "events_matched" not in emitted

    def test_scan_incremental_row_rescans_only_what_changed(self):
        """Each timed scan re-searches the frames the sessions wrote,
        a small part of the 16 MB machine."""
        emitted = ledger.HOT_LOOPS["scan_incremental_16mb"](1, 2)
        assert emitted["best_seconds"] > 0
        assert emitted["scans"] == 2
        assert 0 < emitted["scanned_bytes"] < 2 * 16 * 1024 * 1024 // 10
        assert emitted["matches"] > 0

    def test_taint_audit_sessions_row_audits_a_growing_history(self):
        """One audit every ``every`` sessions, timed alone; the row
        records the history the last audit met."""
        emitted = ledger.HOT_LOOPS["taint_audit_sessions_16mb"](1, 4, 2)
        assert emitted["best_seconds"] > 0
        assert emitted["audits"] == 2
        assert emitted["tainted_frames"] > 0
        assert emitted["full_copies"] > 0
        assert emitted["closed_windows"] > 0

    def test_hardware_sessions_row_runs_in_the_vault(self):
        """Every request's private operation is a key-vault operation."""
        emitted = ledger.HOT_LOOPS["hardware_sessions_16mb"](1, 2)
        assert emitted["best_seconds"] > 0
        assert emitted["requests"] == emitted["vault_ops"] == 2


class TestCommittedBaseline:
    def test_baseline_covers_every_layer(self):
        """Six static rows, then the eleven hot loops, all in one list."""
        rows = committed_ledger()["rows"]
        assert [r["name"] for r in rows] == STATIC_ROWS + HOT_LOOPS
        assert list(ledger.STATIC_ROWS) + list(ledger.HOT_LOOPS) == (
            STATIC_ROWS + HOT_LOOPS
        )
        for r in rows:
            assert r["best_seconds"] > 0
        for r in rows[:len(STATIC_ROWS)]:
            assert "findings" in r

    def test_baseline_exists_at_repo_root_only(self):
        assert [p.name for p in REPO_ROOT.glob("BENCH_*.json")] == [
            "BENCH_ledger.json"
        ]
        assert not list((REPO_ROOT / "tools").glob("bench_*.py"))

    def test_baseline_shape_and_invariants(self):
        payload = committed_ledger()
        assert payload["benchmark"] == "ledger"
        sweep = payload["sweep"]
        assert sweep["cells_identical"] is True
        assert sweep["min_speedup"] == 2.0
        # On a multi-core writer the assertion must be armed and met;
        # a single-core writer records the honest ratio unasserted.
        if sweep["speedup_asserted"]:
            assert sweep["speedup"] >= sweep["min_speedup"]
        else:
            assert sweep["cpu_count"] == 1

    def test_ci_runs_the_gate_with_both_flags(self):
        workflow = (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text(
            encoding="utf-8"
        )
        assert workflow.count("tools/ledger.py") == 1
        assert "tools/ledger.py --require-speedup --check-regression" \
            in workflow
        assert "BENCH_ledger.json" in workflow
