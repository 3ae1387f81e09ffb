"""The temporal soundness regression: measured windows ≤ static bound.

KeySan's event clock stamps every tainted copy's birth and scrub;
KeySpan's table bounds the mint→scrub distance symbolically.  Run the
sshd workload at every ProtectionLevel and check that every *closed*
measured window fits under the static worst-case transient bound
instantiated at a connection count covering the workload — wherever
the static bound is finite.  Where it is ∞ the static analysis
promised nothing, and the dynamic side must show why: unscrubbed
copies still open when the run ends.
"""

import pytest

from repro.analysis.keyspan import analyze
from repro.core.protection import ProtectionLevel
from repro.core.simulation import Simulation, SimulationConfig

ALL_LEVELS = list(ProtectionLevel)

#: The workload cycles 8 connections and holds 4 more; evaluating the
#: symbolic bound at N=12 covers every connection the server saw.
CYCLED, HELD = 8, 4
N_CONN = CYCLED + HELD


def run_taint(level):
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
    return sim.keysan.report(sim.patterns)


@pytest.fixture(scope="module")
def taint_by_level():
    return {level: run_taint(level) for level in ALL_LEVELS}


@pytest.fixture(scope="module")
def static_report(shipped_project):
    return analyze(project=shipped_project)


class TestWorkload:
    def test_clock_advances_with_the_workload(self, taint_by_level):
        for level, report in taint_by_level.items():
            assert report.clock > 0, level.name

    def test_unprotected_run_leaves_windows_open(self, taint_by_level):
        # The static table says NONE is unbounded; the measured run
        # agrees — tainted copies are still exposed when the run ends.
        report = taint_by_level[ProtectionLevel.NONE]
        assert len(report.open_exposures) > 0
        assert len(report.exposure_windows) > 0

    def test_integrated_open_exposure_is_only_the_aligned_page(
        self, taint_by_level
    ):
        # The one deliberate persistent copy: all still-open windows at
        # INTEGRATED sit on a single physical page (the mlocked key
        # page), one per consolidated CRT part.
        report = taint_by_level[ProtectionLevel.INTEGRATED]
        assert report.open_exposures
        assert len({w.page for w in report.open_exposures}) == 1

    def test_hardware_run_closes_every_window(self, taint_by_level):
        assert taint_by_level[ProtectionLevel.HARDWARE].open_exposures == []


class TestContainment:
    @pytest.mark.parametrize("level", ALL_LEVELS, ids=lambda lv: lv.name)
    def test_closed_windows_fit_the_static_bound(
        self, level, taint_by_level, static_report
    ):
        bound = static_report.worst_transient(level.name)
        assert bound is not None
        if bound.top:
            # The static side promised nothing here; TestWorkload pins
            # the matching dynamic evidence (open windows at NONE).
            return
        limit = bound.evaluate(N_CONN)
        worst = taint_by_level[level].worst_closed_exposure()
        assert worst <= limit, (
            f"{level.name}: measured window {worst} exceeds "
            f"static bound {limit}"
        )

    def test_integrated_measured_is_far_below_the_bound(
        self, taint_by_level, static_report
    ):
        # The static bound is a worst case over all paths; the actual
        # scrubs fire promptly, so the measured worst is much smaller.
        # (A measured value near the bound would suggest the dynamic
        # clock and the static cost model had drifted together.)
        bound = static_report.worst_transient("INTEGRATED").evaluate(N_CONN)
        worst = taint_by_level[ProtectionLevel.INTEGRATED].worst_closed_exposure()
        assert 0 < worst <= bound // 10

    def test_histogram_covers_every_closed_window(self, taint_by_level):
        report = taint_by_level[ProtectionLevel.INTEGRATED]
        histogram = report.exposure_histogram()
        assert sum(len(v) for v in histogram.values()) == len(
            report.exposure_windows
        )
        for durations in histogram.values():
            assert durations == sorted(durations)


class TestTeeth:
    def test_ablated_bound_would_not_contain(self, static_report):
        # Remove the clearing-free edge: the INTEGRATED bound degrades
        # to ∞, so the containment assertion above is load-bearing —
        # it compares against a bound the scrub structure earns.
        from repro.analysis.keyspan import DEFAULT_CONFIG

        ablated = analyze(config=DEFAULT_CONFIG.without_scrub("free"))
        assert ablated.worst_transient("INTEGRATED").top
        assert not static_report.worst_transient("INTEGRATED").top
