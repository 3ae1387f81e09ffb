"""Soak engine: multi-generation storms, invariants, determinism.

Small schedule/generation counts keep this tier-1 fast; the CI
``soak-smoke`` job and ``python -m repro soak`` run the full-size
campaigns.
"""

import dataclasses
import json

import pytest

from repro.core.protection import ProtectionLevel
from repro.errors import SwapError
from repro.crypto.randsrc import DeterministicRandom, hash_seed
from repro.faults import soak
from repro.faults.plan import FAULT_SITES, SITE_HORIZONS, FaultPlan
from repro.faults.soak import (
    compose_storm,
    run_soak,
    run_soak_schedule,
    soak_ok,
)

LEVELS_BOTH = [ProtectionLevel.NONE, ProtectionLevel.INTEGRATED]


def derive_soak_seed(base_seed, server, level, index):
    return hash_seed("repro-soak-v1", base_seed, server, level, index)


def _crash_second(index, **kwargs):
    if index == 1:
        raise SwapError("torn slot")
    return run_soak_schedule(index=index, **kwargs)


def small_soak(**kwargs):
    kwargs.setdefault("levels", LEVELS_BOTH)
    kwargs.setdefault("schedules", 2)
    kwargs.setdefault("generations", 3)
    kwargs.setdefault("faults_per_generation", 2)
    kwargs.setdefault("connections", 3)
    return run_soak(**kwargs)


class TestSeedsAndStorms:
    def test_soak_seed_separates_every_coordinate(self):
        seeds = {
            derive_soak_seed(42, "openssh", "none", 0),
            derive_soak_seed(42, "openssh", "none", 1),
            derive_soak_seed(42, "openssh", "integrated", 0),
            derive_soak_seed(42, "apache", "none", 0),
            derive_soak_seed(43, "openssh", "none", 0),
        }
        assert len(seeds) == 5

    def test_storm_is_order_independent(self):
        rng = DeterministicRandom(3)
        storm_a = compose_storm(rng.fork_stream("soak-plan"), 4, 3)
        storm_b = compose_storm(rng.fork_stream("soak-plan"), 4, 3)
        assert storm_a == storm_b
        # fork_stream derivation is stateless, so consuming the parent
        # rng between builds cannot perturb the storm either.
        rng.random()
        assert compose_storm(rng.fork_stream("soak-plan"), 4, 3) == storm_a

    def test_storm_bands_do_not_collide(self):
        storm = compose_storm(DeterministicRandom(4), 5, 4)
        bands = [
            FaultPlan.random(
                DeterministicRandom(4).fork_stream(f"gen{g}"), 4
            ).shift({site: g * SITE_HORIZONS[site] for site in FAULT_SITES})
            for g in range(5)
        ]
        assert len(storm) == sum(len(band) for band in bands)

    def test_generation_cap_enforced(self):
        with pytest.raises(ValueError):
            run_soak_schedule(
                "openssh", ProtectionLevel.NONE, 42, 0, generations=40
            )
        with pytest.raises(ValueError):
            run_soak_schedule(
                "openssh", ProtectionLevel.NONE, 42, 0, generations=0
            )


class TestTeeth:
    def test_integrated_soaks_clean_and_none_leaks(self):
        report = small_soak(seed=42)
        none_summary = report["levels"]["none"]["summary"]
        integrated_summary = report["levels"]["integrated"]["summary"]
        # Teeth: the same storms leak the corpse's key when unprotected.
        assert none_summary["leak_schedules"] > 0
        assert none_summary["cross_incarnation_taint_bytes"] > 0
        # The paper's claim across the crash boundary.
        assert integrated_summary["leak_schedules"] == 0
        assert integrated_summary["cross_incarnation_taint_bytes"] == 0
        assert integrated_summary["audit_leaks"] == 0
        assert report["invariant"]["holds"] is True
        assert soak_ok(report)

    def test_steady_state_invariants_hold_even_unprotected(self):
        report = small_soak(seed=42)
        for level_data in report["levels"].values():
            summary = level_data["summary"]
            assert summary["unhandled"] == 0
            assert summary["invariant_violations"] == 0
            # Every generation rechecked swap/buddy/shadow consistency.
            for schedule in level_data["schedules"]:
                for generation in schedule["generations"]:
                    invariants = generation["invariants"]
                    assert invariants["swap_consistent"]
                    assert invariants["buddy_consistent"]

    def test_every_generation_rotates_the_key(self):
        report = small_soak(seed=7)
        schedule = report["levels"]["integrated"]["schedules"][0]
        incarnations = [g["incarnation"] for g in schedule["generations"]]
        assert incarnations == [0, 1, 2]
        restarts = [g["restart"]["incarnation"] for g in schedule["generations"]]
        assert restarts == [1, 2, 3]

    def test_restart_latencies_are_virtual_and_positive(self):
        report = small_soak(seed=7)
        latency = report["levels"]["integrated"]["summary"]["restart_latency_us"]
        assert latency["count"] == latency["count"]  # present
        assert latency["count"] > 0
        assert latency["total"] > 0
        assert latency["max"] > 0


class TestDeterminism:
    def test_report_is_byte_identical_across_worker_counts(self, pool_cores):
        a = small_soak(seed=9, workers=1)
        b = small_soak(seed=9, workers=3)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_schedules_are_independent_of_execution_order(self):
        # Each schedule derives everything from (seed, server, level,
        # index); running them shuffled must reproduce the in-order
        # records byte for byte.
        params = dict(
            server="openssh",
            level=ProtectionLevel.INTEGRATED,
            base_seed=9,
            generations=2,
            faults_per_generation=2,
            connections=2,
        )
        in_order = [run_soak_schedule(index=i, **params) for i in range(3)]
        assert [r["seed"] for r in in_order] == [
            derive_soak_seed(9, "openssh", "integrated", i) for i in range(3)
        ]
        shuffled = {i: run_soak_schedule(index=i, **params) for i in (2, 0, 1)}
        reassembled = [shuffled[i] for i in range(3)]
        assert json.dumps(in_order, sort_keys=True) == json.dumps(
            reassembled, sort_keys=True
        )

    def test_report_json_has_no_wall_clock(self):
        report = small_soak(seed=3, schedules=1, generations=2)
        text = json.dumps(report)
        assert "wall" not in text
        # re-running reproduces the exact bytes: nothing time-of-day
        assert text == json.dumps(small_soak(seed=3, schedules=1, generations=2))

    def test_validation(self):
        with pytest.raises(ValueError):
            run_soak(schedules=0)
        with pytest.raises(ValueError, match="KeySan tags"):
            run_soak(generations=40)

    def test_a_failing_schedule_fails_the_soak(self, monkeypatch):
        monkeypatch.setattr(
            soak, "SOAK", dataclasses.replace(soak.SOAK, schedule=_crash_second)
        )
        with pytest.raises(RuntimeError) as excinfo:
            small_soak(seed=3, levels=[ProtectionLevel.NONE])
        assert str(excinfo.value) == (
            "soak-v1 schedule 1 at none failed: SwapError: torn slot"
        )


class TestApacheSoak:
    def test_apache_integrated_schedule_is_clean(self):
        record = run_soak_schedule(
            "apache",
            ProtectionLevel.INTEGRATED,
            42,
            0,
            generations=2,
            faults_per_generation=2,
            connections=2,
        )
        assert record["clean"], record
        assert record["unhandled"] == []
        assert record["invariant_violations"] == []

    def test_apache_none_schedule_leaks(self):
        record = run_soak_schedule(
            "apache",
            ProtectionLevel.NONE,
            42,
            0,
            generations=2,
            faults_per_generation=2,
            connections=2,
        )
        assert not record["clean"]
