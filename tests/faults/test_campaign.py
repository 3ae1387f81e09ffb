"""Chaos campaigns: the INTEGRATED invariant, the leak differential at
NONE, and byte-identical replay from the same seed."""

import json

import pytest

from repro.core.protection import ProtectionLevel
from repro.crypto.randsrc import hash_seed
from repro.faults.campaign import (
    LEAK_KEYS,
    campaign_ok,
    run_campaign,
    run_schedule,
)


def derive_schedule_seed(base_seed, server, level, index):
    return hash_seed("repro-chaos-v1", base_seed, server, level, index)


class TestSeedDerivation:
    def test_distinct_across_all_dimensions(self):
        seeds = {
            derive_schedule_seed(base, server, level, index)
            for base in (0, 42)
            for server in ("openssh", "apache")
            for level in ("none", "integrated")
            for index in range(10)
        }
        assert len(seeds) == 2 * 2 * 2 * 10

    def test_stable(self):
        assert derive_schedule_seed(42, "openssh", "integrated", 3) == \
            derive_schedule_seed(42, "openssh", "integrated", 3)


class TestSchedule:
    def test_record_schema(self):
        record = run_schedule(
            "openssh", ProtectionLevel.INTEGRATED, base_seed=1, index=0
        )
        assert set(record) == {
            "index", "seed", "plan", "fired", "server_started",
            "connections_ok", "rejected", "handled", "unhandled",
            "leaks", "clean", "oracle_consistent",
        }
        assert set(record["leaks"]) == set(LEAK_KEYS)
        assert record["seed"] == derive_schedule_seed(1, "openssh", "integrated", 0)
        json.dumps(record)  # JSON-ready, no wall clock, no objects


class TestCampaign:
    def test_integrated_invariant_holds(self):
        report = run_campaign(server="openssh", seed=42, schedules=5)
        invariant = report["invariant"]
        assert invariant["level"] == "integrated"
        assert invariant["holds"]
        summary = report["levels"]["integrated"]["summary"]
        assert summary["unhandled"] == 0
        assert summary["leak_schedules"] == 0
        assert summary["oracle_inconsistencies"] == 0
        assert summary["faults_fired"] > 0  # the campaign wasn't a no-op
        assert campaign_ok(report)

    def test_none_level_leaks_under_the_same_faults(self):
        """The differential that restates the paper under failure: the
        unprotected stack leaks on most fault schedules."""
        report = run_campaign(
            server="openssh",
            levels=[ProtectionLevel.NONE],
            seed=42,
            schedules=4,
        )
        summary = report["levels"]["none"]["summary"]
        assert summary["leak_schedules"] > 0
        assert summary["unhandled"] == 0  # degradation still graceful
        assert "invariant" not in report  # INTEGRATED wasn't part of it
        assert campaign_ok(report)  # leaks at NONE are expected, not errors

    def test_same_seed_byte_identical(self):
        kwargs = dict(server="apache", seed=7, schedules=3)
        first = json.dumps(run_campaign(**kwargs), sort_keys=True)
        second = json.dumps(run_campaign(**kwargs), sort_keys=True)
        assert first == second

    def test_different_seeds_differ(self):
        a = run_campaign(server="openssh", seed=1, schedules=2)
        b = run_campaign(server="openssh", seed=2, schedules=2)
        plans_a = [r["plan"] for r in a["levels"]["integrated"]["schedules"]]
        plans_b = [r["plan"] for r in b["levels"]["integrated"]["schedules"]]
        assert plans_a != plans_b

    def test_zero_schedules_rejected(self):
        with pytest.raises(ValueError):
            run_campaign(schedules=0)

    def test_campaign_ok_flags_violations(self):
        report = run_campaign(server="openssh", seed=5, schedules=2)
        assert campaign_ok(report)
        report["invariant"]["holds"] = False
        assert not campaign_ok(report)
        report["invariant"]["holds"] = True
        report["levels"]["integrated"]["summary"]["unhandled"] = 1
        assert not campaign_ok(report)


class TestCli:
    def test_chaos_command_exit_status_and_report(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "chaos.json"
        code = main([
            "chaos", "--server", "openssh", "--level", "integrated",
            "--schedules", "3", "--seed", "9", "--out", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["invariant"]["holds"]
        assert "invariant HOLDS" in capsys.readouterr().out
