"""KeySpan baseline gate: a reviewed shipped baseline that drifts on
new/stale sites (the shipped tree's gate runs once for every layer, in
test_runall)."""

import json

from repro.analysis.baseline import compare_baseline, load_baseline, write_baseline
from repro.analysis.keyspan import analyze
from repro.analysis.keyspan.engine import REPRO_ROOT
from repro.analysis.runall import baseline_path
from tests.analysis.baseline_contract import BaselineFileContract

SHIPPED = baseline_path("keyspan")

MINTING_FIXTURE = (
    "def deliberately_minting(process, blob):\n"
    "    part = bn_bin2bn(process, blob)\n"
    "    return part\n"
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
        assert payload["tool"] == "keyspan"


class TestDrift:
    def test_new_mint_site_fails_the_check(self, tmp_path):
        (tmp_path / "minting_fixture.py").write_text(
            MINTING_FIXTURE, encoding="utf-8"
        )
        report = analyze(paths=[REPRO_ROOT, tmp_path])
        drift = compare_baseline(report, load_baseline(SHIPPED), tool="keyspan")
        assert not drift.ok
        assert (
            "crt-part:minting_fixture.deliberately_minting:bn_bin2bn#0"
            in drift.new
        )
        assert drift.stale == []

    def test_stale_entry_fails_the_check(self, tmp_path):
        (tmp_path / "mod.py").write_text(MINTING_FIXTURE, encoding="utf-8")
        report = analyze(paths=[tmp_path])
        baseline = {
            "crt-part:mod.deliberately_minting:bn_bin2bn#0": "the fixture",
            "crt-part:mod.vanished:bn_bin2bn#0": "no longer exists",
        }
        drift = compare_baseline(report, baseline, tool="keyspan")
        assert not drift.ok
        assert drift.new == []
        assert drift.stale == ["crt-part:mod.vanished:bn_bin2bn#0"]

    def test_write_then_compare_round_trips(self, tmp_path):
        (tmp_path / "mod.py").write_text(MINTING_FIXTURE, encoding="utf-8")
        report = analyze(paths=[tmp_path])
        path = tmp_path / "baseline.json"
        write_baseline(report, path, tool="keyspan")
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert set(payload["findings"]) == set(report.finding_ids())


class TestBaselineFile(BaselineFileContract):
    layer = "keyspan"
