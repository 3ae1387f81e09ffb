"""The load-bearing soundness regression: dynamic ≤ static, per level.

Run the sshd workload at **every** ProtectionLevel with KeySan
attached and compare the sanitizer's page-level copy census against
KeyCount's symbolic bound instantiated at a connection count at least
as large as the workload served.  Every region class, at every level,
must satisfy ``dynamic ≤ static`` — the static analysis is an upper
bound or it is nothing.  The teeth test ablates one mitigation term
and watches the INTEGRATED bound loosen, proving the containment
assertion depends on the analysis rather than on a trivially huge
bound.
"""

import pytest

from repro.analysis.keycount import analyze
from repro.analysis.keycount.config import REGION_CLASSES
from repro.core.protection import ProtectionLevel
from repro.core.simulation import Simulation, SimulationConfig

ALL_LEVELS = list(ProtectionLevel)

#: The workload cycles 8 connections and holds 4 more; evaluating the
#: symbolic bound at N=12 covers every connection the server saw.
CYCLED, HELD = 8, 4
N_CONN = CYCLED + HELD


def run_census(level):
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
    sim.cycle_connections(CYCLED)
    sim.hold_connections(HELD)
    return sim.keysan.report(sim.patterns).copy_census()


@pytest.fixture(scope="module")
def census_by_level():
    return {level: run_census(level) for level in ALL_LEVELS}


@pytest.fixture(scope="module")
def report(shipped_project):
    return analyze(project=shipped_project)


class TestWorkload:
    def test_unprotected_run_creates_copies(self, census_by_level):
        census = census_by_level[ProtectionLevel.NONE]
        # the containment check is vacuous unless NONE actually leaks
        assert census["allocated"] >= 1
        assert census["freed"] >= 1
        assert census["pagecache"] >= 1

    def test_integrated_run_keeps_exactly_one_residual_copy(
        self, census_by_level
    ):
        census = census_by_level[ProtectionLevel.INTEGRATED]
        assert census["allocated"] == 1  # the aligned key page
        assert census["freed"] == 0
        assert census["pagecache"] == 0
        assert census["swap"] == 0

    def test_hardware_run_is_copy_free(self, census_by_level):
        assert census_by_level[ProtectionLevel.HARDWARE]["total"] == 0


class TestContainment:
    @pytest.mark.parametrize("level", ALL_LEVELS, ids=lambda lv: lv.name)
    def test_dynamic_census_is_contained_per_level(
        self, level, census_by_level, report
    ):
        census = census_by_level[level]
        for region in REGION_CLASSES:
            static = report.evaluate(level.name, region, N_CONN)
            if static is None:
                continue  # ⊤ contains everything
            assert census[region] <= static, (
                f"KeySan observed {census[region]} {region} copies at "
                f"{level.name} but KeyCount bounds it by {static}"
            )

    def test_library_and_integrated_bounds_are_tight(
        self, census_by_level, report
    ):
        # the residual aligned page: observed == proven bound
        for level in (ProtectionLevel.LIBRARY, ProtectionLevel.INTEGRATED):
            assert (
                census_by_level[level]["allocated"]
                == report.evaluate(level.name, "allocated", N_CONN)
                == 1
            )


class TestTeeth:
    def test_containment_is_not_vacuous(self, census_by_level, report):
        """The NONE-level bound must be within an order of magnitude of
        useful: finite, and actually exercised by the workload."""
        total = report.evaluate_total("NONE", N_CONN)
        assert total is not None
        assert census_by_level[ProtectionLevel.NONE]["total"] >= 5

    def test_ablated_analysis_loosens_the_integrated_bound(self, report):
        from repro.analysis.keycount import DEFAULT_CONFIG

        ablated = analyze(
            config=DEFAULT_CONFIG.without_mitigation("o_nocache")
        )
        assert (
            ablated.evaluate_total("INTEGRATED", N_CONN)
            > report.evaluate_total("INTEGRATED", N_CONN)
        )
