"""KeyState baseline gate: a reviewed shipped baseline that drifts on
new/stale entries (the shipped tree's gate runs once for every layer, in
test_runall)."""

import json

from repro.analysis.baseline import compare_baseline, load_baseline
from repro.analysis.keystate import analyze
from repro.analysis.ir.project import REPRO_ROOT
from repro.analysis.runall import baseline_path
from tests.analysis.baseline_contract import BaselineFileContract

SHIPPED = baseline_path("keystate")

SEEDED_FIXTURE = (
    "def load_and_serve(process, msg):\n"
    "    rsa = RsaStruct(process)\n"
    "    rsa_private_operation(rsa, msg)\n"
)
SEEDED_ID = "serve-before-align:{mod}.load_and_serve:new:RsaStruct:serve"


class TestShippedBaseline:
    def test_every_entry_has_a_justification_body(self):
        baseline = load_baseline(SHIPPED)
        assert baseline, "shipped baseline must not be empty"
        for finding_id, justification in baseline.items():
            assert justification.strip(), finding_id
            assert "TODO" not in justification, finding_id

    def test_baseline_file_is_sorted_and_tool_tagged(self):
        payload = json.loads(SHIPPED.read_text(encoding="utf-8"))
        assert payload["tool"] == "keystate"
        ids = list(payload["findings"])
        assert ids == sorted(ids)

    def test_shipped_baseline_spans_serve_and_keyfile_protocols(self):
        """The reviewed findings cover the serve and key-file protocols.
        The temporary-buffer protocol has no accepted finding left: its
        one entry was KeySan.report's copy of RAM, which no longer
        exists (the protocol itself is exercised by test_engine's
        fixtures)."""
        rules = {
            finding_id.split(":", 1)[0] for finding_id in load_baseline(SHIPPED)
        }
        assert {"serve-before-align", "keyfile-no-nocache"} <= rules
        assert "temp-unscrubbed" not in rules


class TestDrift:
    def test_seeded_ordering_bug_fails_the_check(self, tmp_path):
        (tmp_path / "seeded.py").write_text(SEEDED_FIXTURE, encoding="utf-8")
        report = analyze(paths=[REPRO_ROOT, tmp_path])
        drift = compare_baseline(report, load_baseline(SHIPPED), tool="keystate")
        assert not drift.ok
        assert SEEDED_ID.format(mod="seeded") in drift.new
        assert drift.stale == []

    def test_stale_entry_fails_the_check(self, tmp_path):
        (tmp_path / "mod.py").write_text(SEEDED_FIXTURE, encoding="utf-8")
        report = analyze(paths=[tmp_path])
        baseline = {
            SEEDED_ID.format(mod="mod"): "seeded fixture",
            "double-free:mod.gone:new:RsaStruct:free": "function was removed",
        }
        drift = compare_baseline(report, baseline, tool="keystate")
        assert not drift.ok
        assert drift.new == []
        assert drift.stale == ["double-free:mod.gone:new:RsaStruct:free"]

    def test_drift_rendering_names_the_tool_and_directions(self, tmp_path):
        (tmp_path / "mod.py").write_text(SEEDED_FIXTURE, encoding="utf-8")
        report = analyze(paths=[tmp_path])
        drift = compare_baseline(
            report, {"bogus:id:x": "stale entry"}, tool="keystate"
        )
        text = drift.render_text()
        assert text.startswith("keystate baseline:")
        assert "NEW" in text and "STALE" in text


class TestBaselineFile(BaselineFileContract):
    layer = "keystate"
