"""The load-bearing soundness regression: dynamic ⊆ static.

Run the structural attacker (:mod:`repro.attacks.predict`) against the
sshd workload at **every** ProtectionLevel and require that every
program point KeySan attributes disclosed fragments to is flagged
reconstructible by KeyRecon — the static set must contain every
dynamic reconstruction site or it is nothing.

The teeth tests then prove the gate actually depends on the derivation
edges.  On the real tree the lattice roots are *redundant* — fragment
attributes, ``keygen``, ``parse`` and ``memory-read`` each
independently saturate the interprocedural heap, so removing any one
of them changes nothing (that redundancy is itself asserted: the gate
survives single ablations).  Stripping the redundancy down to a single
root (``memory-read``, the soundness blanket) and then removing that
one derivation family collapses the reconstructible set and the gate
fails — the containment check is carried by the derivation edges, not
by a vacuously huge set.

Finally, the headline asymmetry: at INTEGRATED, reps exist where the
exact-match attacker counts **zero** verbatim copies while the
structural attacker rebuilds the full key from the aligned fragment
region — alignment defeats the pattern scanner and *feeds* the
reconstructor.
"""

import pytest

from repro.analysis.keyrecon import DEFAULT_CONFIG, analyze
from repro.core.protection import ProtectionLevel
from repro.core.simulation import Simulation, SimulationConfig

ALL_LEVELS = list(ProtectionLevel)

CYCLED, HELD = 8, 4
REPS = 4


def run_predict_campaign(level):
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
    reps = []
    origins = set()
    for _ in range(REPS):
        exact = sim.run_ntty_attack()
        predict = sim.run_ntty_predict()
        reps.append((exact.total_copies, predict.success))
        origins.update(predict.origins)
    return {
        "reps": reps,
        "origins": origins,
        "sites": set(sim.keysan.observed_sites(prefix="repro.")),
    }


@pytest.fixture(scope="module")
def dynamic_by_level():
    return {level: run_predict_campaign(level) for level in ALL_LEVELS}


@pytest.fixture(scope="module")
def static_report(shipped_project):
    return analyze(project=shipped_project)


class TestWorkload:
    def test_unprotected_key_falls_every_rep(self, dynamic_by_level):
        # the containment check is vacuous unless the attacker wins
        assert all(
            success for _, success in dynamic_by_level[ProtectionLevel.NONE]["reps"]
        )

    def test_hardware_key_never_falls(self, dynamic_by_level):
        run = dynamic_by_level[ProtectionLevel.HARDWARE]
        assert not any(success for _, success in run["reps"])
        assert all(copies == 0 for copies, _ in run["reps"])

    def test_structural_attack_attributes_its_hits(self, dynamic_by_level):
        origins = dynamic_by_level[ProtectionLevel.NONE]["origins"]
        assert origins, "predict hits must attribute to KeySan origins"
        assert all(origin.startswith("repro.") for origin in origins)

    def test_zero_exact_copies_but_structural_success(self, dynamic_by_level):
        """The headline result: at INTEGRATED the pattern scanner counts
        zero verbatim copies in a dump from which the structural
        attacker still rebuilds the full key — the aligned region
        defeats exact matching while concentrating the fragments."""
        reps = dynamic_by_level[ProtectionLevel.INTEGRATED]["reps"]
        assert any(copies == 0 and success for copies, success in reps), reps


class TestContainment:
    @pytest.mark.parametrize("level", ALL_LEVELS, ids=lambda lv: lv.name)
    def test_predict_origins_are_contained_per_level(
        self, level, dynamic_by_level, static_report
    ):
        recon = set(static_report.reconstructible_set)
        escaped = dynamic_by_level[level]["origins"] - recon
        assert not escaped, (
            f"structural attacker rebuilt key material from {sorted(escaped)} "
            f"at {level.name} but KeyRecon does not flag them reconstructible"
        )

    @pytest.mark.parametrize("level", ALL_LEVELS, ids=lambda lv: lv.name)
    def test_observed_sites_are_contained_per_level(
        self, level, dynamic_by_level, static_report
    ):
        recon = set(static_report.reconstructible_set)
        escaped = dynamic_by_level[level]["sites"] - recon
        assert not escaped, (
            f"KeySan attributed fragments to {sorted(escaped)} at "
            f"{level.name} outside KeyRecon's reconstructible set"
        )

    def test_reconstructible_set_has_verdicts(self, static_report):
        assert set(static_report.reconstructible_set) == set(
            static_report.verdicts
        )
        assert set(static_report.verdicts.values()) <= {"FULL_KEY", "PARTIAL"}


class TestTeeth:
    def test_roots_are_redundant_one_ablation_never_unsounds(
        self, dynamic_by_level, static_report
    ):
        """Removing any *single* derivation family leaves every dynamic
        site flagged: fragment attributes and the other root families
        each re-anchor the lattice.  (This is why the failing ablation
        below must first strip the redundancy.)"""
        sites = set().union(
            *(dynamic_by_level[level]["sites"] for level in ALL_LEVELS)
        )
        for family in ("keygen", "memory-read"):
            ablated = analyze(config=DEFAULT_CONFIG.without_derivation(family))
            assert sites <= set(ablated.reconstructible_set), family

    def test_gate_fails_when_the_last_derivation_edge_is_removed(
        self, dynamic_by_level
    ):
        """Strip the redundancy to a single root, then remove that one
        derivation family and watch containment break."""
        sites = set().union(
            *(dynamic_by_level[level]["sites"] for level in ALL_LEVELS)
        )
        lean = (
            DEFAULT_CONFIG.without_fragment_attrs()
            .without_derivation("keygen")
            .without_derivation("parse")
        )
        held = analyze(config=lean)
        assert sites <= set(held.reconstructible_set), (
            "memory-read alone must still anchor every dynamic site"
        )

        broken = analyze(config=lean.without_derivation("memory-read"))
        escaped = sites - set(broken.reconstructible_set)
        assert escaped == sites, (
            "removing the memory-read derivation edges must collapse "
            "containment for every dynamic site"
        )

    def test_single_edge_sensitivity_on_isolated_function(self, tmp_path):
        """On a function whose only fragment source is one derivation
        edge, ablating exactly that family de-flags it."""
        (tmp_path / "scavenger.py").write_text(
            "def scavenge(frame):\n"
            "    blob = frame.read()\n"
            "    return blob\n",
            encoding="utf-8",
        )
        flagged = analyze(paths=[tmp_path])
        assert "scavenger.scavenge" in flagged.reconstructible_set

        ablated = analyze(
            paths=[tmp_path],
            config=DEFAULT_CONFIG.without_derivation("memory-read"),
        )
        assert "scavenger.scavenge" not in ablated.reconstructible_set
