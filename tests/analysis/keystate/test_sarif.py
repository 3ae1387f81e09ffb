"""KeyState emits valid SARIF through the shared exporter."""

import json

from repro.analysis.keystate import analyze
from repro.analysis.sarif import SARIF_VERSION, validate_sarif


class TestKeystateSarif:
    def test_dogfood_report_is_valid_sarif(self, shipped_project):
        report = analyze(project=shipped_project)
        document = report.to_sarif()
        assert validate_sarif(document) == []
        assert document["version"] == SARIF_VERSION
        run = document["runs"][0]
        assert run["tool"]["driver"]["name"] == "keystate"
        assert len(run["results"]) == len(report.findings)

    def test_rule_table_carries_the_automata_descriptions(self, shipped_project):
        report = analyze(project=shipped_project)
        driver = report.to_sarif()["runs"][0]["tool"]["driver"]
        rule_ids = {rule["id"] for rule in driver["rules"]}
        assert "serve-before-align" in rule_ids
        assert "keyfile-no-nocache" in rule_ids
        assert "temp-unscrubbed" in rule_ids

    def test_round_trips_through_json(self, tmp_path, shipped_project):
        report = analyze(project=shipped_project)
        path = tmp_path / "keystate.sarif"
        path.write_text(json.dumps(report.to_sarif()), encoding="utf-8")
        assert validate_sarif(json.loads(path.read_text())) == []
