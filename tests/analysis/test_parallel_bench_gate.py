"""The ledger's budget math over the hot-loop rows.

The static-analysis rows and the committed ledger are checked in
``test_bench_gate.py``; both use the one ``ledger.check_regression``.
"""

import importlib.util
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

spec = importlib.util.spec_from_file_location(
    "ledger", REPO_ROOT / "tools" / "ledger.py"
)
ledger = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ledger)


def row(name, best):
    return {"name": name, "best_seconds": best}


def gate(fresh, committed):
    return ledger.check_regression(fresh, {"rows": committed})


class TestBudgetMath:
    def test_within_budget_passes(self):
        assert gate([row("scan_256mb_full", 1.0)],
                    [row("scan_256mb_full", 1.0)]) == []
        # 20% + floor: the budget is 1.2 + 0.15 ≈ 1.35
        assert gate([row("scan_256mb_full", 1.34)],
                    [row("scan_256mb_full", 1.0)]) == []

    def test_regression_beyond_budget_fails(self):
        failures = gate([row("scan_256mb_full", 1.4)],
                        [row("scan_256mb_full", 1.0)])
        assert len(failures) == 1
        assert "scan_256mb_full" in failures[0]

    def test_floor_absorbs_noise_on_fast_loops(self):
        # 3x slower in relative terms, but inside the absolute floor.
        assert gate([row("shadow_census_256mb", 0.15)],
                    [row("shadow_census_256mb", 0.05)]) == []

    def test_new_loop_without_baseline_is_not_a_regression(self):
        assert gate([row("brand_new_loop", 9.9)],
                    [row("scan_256mb_full", 1.0)]) == []

    def test_each_loop_judged_independently(self):
        failures = gate(
            [row("scan_256mb_full", 0.5), row("keygen_cold_1024", 5.0)],
            [row("scan_256mb_full", 1.0), row("keygen_cold_1024", 0.1)],
        )
        assert len(failures) == 1
        assert "keygen_cold_1024" in failures[0]
