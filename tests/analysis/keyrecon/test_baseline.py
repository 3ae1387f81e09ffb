"""KeyRecon baseline gate: a reviewed shipped baseline that drifts on
new/stale sites (the shipped tree's gate runs once for every layer, in
test_runall)."""

import json

from repro.analysis.baseline import compare_baseline, load_baseline, write_baseline
from repro.analysis.keyrecon import analyze
from repro.analysis.ir.project import REPRO_ROOT
from repro.analysis.runall import baseline_path
from tests.analysis.baseline_contract import BaselineFileContract

SHIPPED = baseline_path("keyrecon")

MINTING_FIXTURE = (
    "def deliberately_minting(process, bits):\n"
    "    key = generate_rsa_key(process, bits)\n"
    "    return key\n"
)

MINTING_ID = (
    "full-key-reconstructible:minting_fixture.deliberately_minting:"
    "keygen:crt-exponent+factor+private-exponent"
)


class TestShippedBaseline:
    def test_every_entry_has_a_distinct_justification_body(self):
        baseline = load_baseline(SHIPPED)
        assert baseline, "shipped baseline must not be empty"
        for finding_id, justification in baseline.items():
            assert justification.strip(), finding_id
            assert "TODO" not in justification, finding_id

    def test_baseline_file_is_sorted_and_stable(self):
        payload = json.loads(SHIPPED.read_text(encoding="utf-8"))
        ids = list(payload["findings"])
        assert ids == sorted(ids)
        assert payload["tool"] == "keyrecon"

    def test_baseline_names_the_alignment_tension(self):
        """The genuinely novel finding rides in the baseline: all three
        rsa_memory_align call sites are flagged as concentrators."""
        concentration = [
            finding_id
            for finding_id in load_baseline(SHIPPED)
            if finding_id.startswith("fragment-concentration:")
        ]
        assert len(concentration) == 3
        assert all("rsa_memory_align" in f for f in concentration)


class TestDrift:
    def test_new_minting_site_fails_the_check(self, tmp_path):
        (tmp_path / "minting_fixture.py").write_text(
            MINTING_FIXTURE, encoding="utf-8"
        )
        report = analyze(paths=[REPRO_ROOT, tmp_path])
        drift = compare_baseline(report, load_baseline(SHIPPED), tool="keyrecon")
        assert not drift.ok
        assert MINTING_ID in drift.new
        assert drift.stale == []

    def test_stale_entry_fails_the_check(self, tmp_path):
        (tmp_path / "minting_fixture.py").write_text(
            MINTING_FIXTURE, encoding="utf-8"
        )
        report = analyze(paths=[tmp_path])
        baseline = {
            MINTING_ID: "the fixture",
            "full-key-reconstructible:minting_fixture.vanished:keygen:factor":
                "no longer exists",
        }
        drift = compare_baseline(report, baseline, tool="keyrecon")
        assert not drift.ok
        assert drift.new == []
        assert drift.stale == [
            "full-key-reconstructible:minting_fixture.vanished:keygen:factor"
        ]

    def test_write_then_compare_round_trips(self, tmp_path):
        (tmp_path / "minting_fixture.py").write_text(
            MINTING_FIXTURE, encoding="utf-8"
        )
        report = analyze(paths=[tmp_path])
        path = tmp_path / "baseline.json"
        write_baseline(report, path, tool="keyrecon")
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert set(payload["findings"]) == set(report.finding_ids())
        recorded = json.loads(path.read_text())["findings"]
        drift = compare_baseline(report, recorded, tool="keyrecon")
        assert drift.ok


class TestBaselineFile(BaselineFileContract):
    layer = "keyrecon"
