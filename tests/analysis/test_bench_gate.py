"""The static-analysis runtime gate: budget math and baseline shape."""

import importlib.util
import json
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

spec = importlib.util.spec_from_file_location(
    "bench_static_analysis", REPO_ROOT / "tools" / "bench_static_analysis.py"
)
bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench)


def entry(tool, best):
    return {"tool": tool, "best_seconds": best, "mean_seconds": best}


class TestBudgetMath:
    def test_within_budget_passes(self):
        baseline = {"results": [entry("keyflow", 1.0)]}
        assert bench.check_regression([entry("keyflow", 1.0)], baseline) == []
        # 20% + floor: the budget is 1.2 + 0.15 ≈ 1.35
        assert bench.check_regression([entry("keyflow", 1.34)], baseline) == []

    def test_regression_beyond_budget_fails(self):
        baseline = {"results": [entry("keyflow", 1.0)]}
        failures = bench.check_regression([entry("keyflow", 1.4)], baseline)
        assert len(failures) == 1
        assert "keyflow" in failures[0]

    def test_floor_absorbs_noise_on_fast_layers(self):
        baseline = {"results": [entry("keylint", 0.05)]}
        # 3x slower in relative terms, but inside the absolute floor
        assert bench.check_regression([entry("keylint", 0.15)], baseline) == []

    def test_new_layer_without_baseline_is_not_a_regression(self):
        baseline = {"results": [entry("keyflow", 1.0)]}
        assert bench.check_regression([entry("brandnew", 9.9)], baseline) == []


class TestCommittedBaseline:
    def test_baseline_covers_every_layer(self):
        payload = json.loads(
            (REPO_ROOT / "BENCH_static_analysis.json").read_text(
                encoding="utf-8"
            )
        )
        tools = [e["tool"] for e in payload["results"]]
        assert tools == [
            "keylint", "keyflow+keyrecon", "keystate", "keycount",
            "keyspan", "analyze",
        ]
        for e in payload["results"]:
            assert e["best_seconds"] > 0
            assert "findings" in e
