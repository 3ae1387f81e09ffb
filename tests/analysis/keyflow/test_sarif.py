"""Shared SARIF exporter: both analyzers emit valid 2.1.0 logs."""

import json

from repro.analysis.keyflow import analyze
from repro.analysis.lint import lint_paths, render_sarif
from repro.analysis.sarif import (
    SARIF_VERSION,
    sarif_log,
    sarif_result,
    validate_sarif,
)
from repro.analysis.ir.project import REPRO_ROOT


class TestKeyflowSarif:
    def test_dogfood_report_is_valid_sarif(self, shipped_project):
        report = analyze(project=shipped_project)
        document = report.to_sarif()
        assert validate_sarif(document) == []
        assert document["version"] == SARIF_VERSION
        run = document["runs"][0]
        assert run["tool"]["driver"]["name"] == "keyflow"
        assert len(run["results"]) == len(report.findings)

    def test_round_trips_through_json(self, tmp_path, shipped_project):
        report = analyze(project=shipped_project)
        path = tmp_path / "keyflow.sarif"
        path.write_text(json.dumps(report.to_sarif()), encoding="utf-8")
        assert validate_sarif(json.loads(path.read_text())) == []


class TestKeylintSarif:
    def test_lint_sarif_shares_the_exporter_shape(self):
        violations = lint_paths([REPRO_ROOT])
        document = render_sarif(violations)
        assert validate_sarif(document) == []
        assert document["runs"][0]["tool"]["driver"]["name"] == "keylint"


class TestValidator:
    def rules(self):
        return {"r1": "rule one"}

    def test_accepts_minimal_log(self):
        doc = sarif_log("t", self.rules(), [sarif_result("r1", "m", "a.py", 3)])
        assert validate_sarif(doc) == []

    def test_rejects_wrong_version(self):
        doc = sarif_log("t", self.rules(), [])
        doc["version"] = "2.0.0"
        assert any("version" in p for p in validate_sarif(doc))

    def test_rejects_unknown_rule_id(self):
        doc = sarif_log("t", self.rules(), [sarif_result("nope", "m", "a.py", 1)])
        assert any("not in rule table" in p for p in validate_sarif(doc))

    def test_rejects_missing_location(self):
        result = sarif_result("r1", "m", "a.py", 1)
        result["locations"] = []
        doc = sarif_log("t", self.rules(), [result])
        assert any("locations" in p for p in validate_sarif(doc))

    def test_line_zero_is_clamped_at_emit_and_rejected_raw(self):
        assert sarif_result("r1", "m", "a.py", 0)["locations"][0][
            "physicalLocation"
        ]["region"]["startLine"] == 1
        bad = sarif_result("r1", "m", "a.py", 5)
        bad["locations"][0]["physicalLocation"]["region"]["startLine"] = 0
        doc = sarif_log("t", self.rules(), [bad])
        assert any("startLine" in p for p in validate_sarif(doc))
