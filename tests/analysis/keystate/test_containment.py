"""The load-bearing soundness regression: dynamic ⊆ static, per level.

Run the sshd workload (connection cycles, a held session, a fatal-
error abort, server shutdown) at **every** ProtectionLevel with KeySan
attached.  The sanitizer's lifecycle monitor executes the same
protocol automata as the static engine; every ordering violation it
observes, at any level, must correspond to a KeyState finding for the
same rule at the same function.  The teeth test ablates the rsa-key
automaton from the static side and watches containment break, proving
the assertion depends on the analysis rather than on an empty
violation set.
"""

import pytest

from repro.analysis.keystate import KeyStateConfig, analyze
from repro.core.protection import ProtectionLevel
from repro.core.simulation import Simulation, SimulationConfig

ALL_LEVELS = list(ProtectionLevel)


def run_workload(level):
    sim = Simulation(
        SimulationConfig(
            server="openssh",
            level=level,
            seed=7,
            memory_mb=8,
            key_bits=256,
            taint=True,
        )
    )
    sim.start_server()
    sim.cycle_connections(4)
    sim.hold_connections(2)
    # fatal-error teardown: the child scrubs what it owns (or fails to)
    conn = sim.server.open_connection()
    conn.abort()
    sim.stop_server()
    return sim.keysan.lifecycle


@pytest.fixture(scope="module")
def dynamic_pairs_by_level():
    return {
        level: run_workload(level).violation_pairs() for level in ALL_LEVELS
    }


@pytest.fixture(scope="module")
def static_pairs(shipped_project):
    return {
        (f.rule, f.function)
        for f in analyze(project=shipped_project).findings
    }


def simulated(pairs):
    """Violations attributed inside the simulator (the static domain)."""
    return [(rule, site) for rule, site in pairs if site.startswith("repro.")]


class TestWorkload:
    def test_unprotected_run_observes_violations(self, dynamic_pairs_by_level):
        # the containment check is vacuous unless NONE actually violates
        rules = {rule for rule, _ in dynamic_pairs_by_level[ProtectionLevel.NONE]}
        assert "serve-before-align" in rules
        assert "free-unscrubbed-mont" in rules
        assert "keyfile-no-nocache" in rules

    def test_protected_levels_quiet_the_rsa_protocol(self, dynamic_pairs_by_level):
        for level in (ProtectionLevel.INTEGRATED, ProtectionLevel.HARDWARE):
            rsa_rules = {
                rule
                for rule, _ in dynamic_pairs_by_level[level]
                if rule not in ("keyfile-no-nocache",)
            }
            assert rsa_rules == set(), (level, rsa_rules)


class TestContainment:
    @pytest.mark.parametrize("level", ALL_LEVELS, ids=lambda lv: lv.name)
    def test_dynamic_violations_are_contained_per_level(
        self, level, dynamic_pairs_by_level, static_pairs
    ):
        escaped = [
            pair
            for pair in simulated(dynamic_pairs_by_level[level])
            if pair not in static_pairs
        ]
        assert not escaped, (
            "KeySan observed lifecycle violations KeyState does not "
            f"report statically at {level.name}: {escaped}"
        )

    def test_known_violation_sites_match_exactly(self, dynamic_pairs_by_level):
        pairs = set(dynamic_pairs_by_level[ProtectionLevel.NONE])
        assert (
            "serve-before-align",
            "repro.apps.sshd.OpenSSHServer._key_exchange",
        ) in pairs
        assert (
            "free-unscrubbed-mont",
            "repro.apps.sshd.SshConnection.abort",
        ) in pairs


class TestTeeth:
    def test_containment_fails_without_the_rsa_automaton(
        self, dynamic_pairs_by_level
    ):
        # Ablate the rsa-key protocol from the static side only: the
        # runtime monitor still observes serve-before-align, so the
        # containment assertion must break.
        ablated = {
            (f.rule, f.function)
            for f in analyze(
                config=KeyStateConfig().without_automaton("rsa-key")
            ).findings
        }
        dynamic = simulated(dynamic_pairs_by_level[ProtectionLevel.NONE])
        assert not set(dynamic) <= ablated

    def test_ablation_only_removes_that_protocol(self):
        report = analyze(config=KeyStateConfig().without_automaton("rsa-key"))
        rules = {f.rule for f in report.findings}
        assert "serve-before-align" not in rules
        assert "keyfile-no-nocache" in rules
