"""The load-bearing soundness regression: dynamic ⊆ static.

Run the openssh workload at ProtectionLevel NONE under KeySan and
require every call site the sanitizer attributes secret bytes to be
contained in KeyFlow's statically computed leak set.  If this test
holds, KeyFlow can never silently under-approximate what the runtime
sanitizer observes; the ablation tests prove it has teeth by breaking
the config and watching containment fail.
"""

import pytest

from repro.analysis.keyflow import DEFAULT_CONFIG, analyze
from repro.core.protection import ProtectionLevel
from repro.core.simulation import Simulation, SimulationConfig


@pytest.fixture(scope="module")
def dynamic_sites():
    sim = Simulation(
        SimulationConfig(
            server="openssh",
            level=ProtectionLevel.NONE,
            seed=7,
            memory_mb=8,
            key_bits=256,
            taint=True,
        )
    )
    sim.start_server()
    sim.cycle_connections(8)
    sim.hold_connections(4)
    return sim.taint_report().observed_sites()


@pytest.fixture(scope="module")
def static_leak_set(shipped_project):
    return set(analyze(project=shipped_project).leak_set)


class TestContainment:
    def test_workload_observes_sites(self, dynamic_sites):
        # the check is vacuous unless the workload actually leaks
        assert len(dynamic_sites) >= 3
        assert all(site.startswith("repro.") for site in dynamic_sites)

    def test_dynamic_sites_are_contained_in_static_leak_set(
        self, dynamic_sites, static_leak_set
    ):
        escaped = sorted(set(dynamic_sites) - static_leak_set)
        assert not escaped, (
            "KeySan observed secret bytes at call sites KeyFlow does not "
            f"consider statically reachable: {escaped}"
        )

    def test_known_leak_sites_present_dynamically(self, dynamic_sites):
        # the paper's canonical chain: PEM decode -> BIGNUM -> Montgomery
        assert "repro.ssl.bn.bn_bin2bn" in dynamic_sites
        assert "repro.ssl.d2i.d2i_privatekey" in dynamic_sites


class TestTeeth:
    def test_containment_fails_without_sources(self, dynamic_sites):
        # Ablate every taint source: the leak set collapses and the
        # containment assertion must fail — proving the test actually
        # depends on the configured sources.
        ablated = set(
            analyze(config=DEFAULT_CONFIG.without_sources()).leak_set
        )
        assert not set(dynamic_sites) <= ablated

    def test_sink_ablation_erases_flow_findings_but_not_leak_set(self):
        report = analyze(config=DEFAULT_CONFIG.without_sinks())
        assert not any(f.rule == "tainted-flow" for f in report.findings)
        # taint still propagates; only the reporting of flows is gone
        assert "repro.ssl.bn.bn_bin2bn" in report.leak_set
