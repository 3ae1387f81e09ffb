"""KeyFlow baseline gate: a reviewed shipped baseline that drifts on
new/stale/leaky findings (the shipped tree's gate runs once for every layer, in
test_runall)."""

import json

from repro.analysis.baseline import compare_baseline, load_baseline
from repro.analysis.keyflow import analyze
from repro.analysis.ir.project import REPRO_ROOT
from repro.analysis.runall import baseline_path
from tests.analysis.baseline_contract import BaselineFileContract

SHIPPED = baseline_path("keyflow")

LEAKY_FIXTURE = (
    "def deliberately_leaky(mm, path):\n"
    "    der = pem_decode(path)\n"
    "    mm.write(0, der)\n"
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


class TestDrift:
    def test_new_leaky_function_fails_the_check(self, tmp_path):
        # The acceptance demo: add a deliberately leaky fixture module
        # next to the real tree; the baseline check must go red with a
        # NEW finding naming it.
        (tmp_path / "leaky_fixture.py").write_text(LEAKY_FIXTURE, encoding="utf-8")
        report = analyze(paths=[REPRO_ROOT, tmp_path])
        drift = compare_baseline(report, load_baseline(SHIPPED), tool="keyflow")
        assert not drift.ok
        assert (
            "tainted-flow:leaky_fixture.deliberately_leaky:write:memory-write"
            in drift.new
        )
        assert drift.stale == []

    def test_stale_entry_fails_the_check(self, tmp_path):
        (tmp_path / "mod.py").write_text(LEAKY_FIXTURE, encoding="utf-8")
        report = analyze(paths=[tmp_path])
        baseline = {
            "tainted-flow:mod.deliberately_leaky:write:memory-write": "known",
            "tainted-flow:mod.gone:write:memory-write": "flow that no longer exists",
        }
        drift = compare_baseline(report, baseline, tool="keyflow")
        assert not drift.ok
        assert drift.new == []
        assert drift.stale == ["tainted-flow:mod.gone:write:memory-write"]

    def test_drift_rendering_names_both_directions(self, tmp_path):
        (tmp_path / "mod.py").write_text(LEAKY_FIXTURE, encoding="utf-8")
        report = analyze(paths=[tmp_path])
        drift = compare_baseline(
            report, {"bogus:id:x": "stale entry"}, tool="keyflow"
        )
        text = drift.render_text()
        assert "NEW" in text and "STALE" in text


class TestBaselineFile(BaselineFileContract):
    layer = "keyflow"
