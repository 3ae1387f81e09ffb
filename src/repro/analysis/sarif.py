"""Shared SARIF 2.1.0 exporter for every static layer.

One builder produces the minimal-but-valid subset of SARIF that GitHub
code scanning ingests via ``github/codeql-action/upload-sarif``: a
single run with ``tool.driver`` metadata, a rule table, and results
with physical locations.  keylint and all IR layers funnel through
:func:`sarif_log` so their outputs stay structurally identical and a
single :func:`validate_sarif` covers them all in tests and CI.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def sarif_result(
    rule_id: str,
    message: str,
    path: str,
    line: int,
    level: str = "warning",
) -> Dict[str, object]:
    """One SARIF ``result`` with a physical location."""
    return {
        "ruleId": rule_id,
        "level": level,
        "message": {"text": message},
        "locations": [
            {
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": path,
                        "uriBaseId": "%SRCROOT%",
                    },
                    "region": {"startLine": max(1, int(line))},
                }
            }
        ],
    }


def sarif_log(
    tool_name: str,
    rules: Mapping[str, str],
    results: Sequence[Dict[str, object]],
) -> Dict[str, object]:
    """A complete single-run SARIF 2.1.0 log.

    ``rules`` maps rule id -> short description; every result's
    ``ruleId`` must be a key of it (checked by :func:`validate_sarif`).
    """
    driver: Dict[str, object] = {
        "name": tool_name,
        "version": "0.1.0",
        "rules": [
            {
                "id": rule_id,
                "shortDescription": {"text": description},
            }
            for rule_id, description in sorted(rules.items())
        ],
    }
    return {
        "version": SARIF_VERSION,
        "$schema": SARIF_SCHEMA,
        "runs": [
            {
                "tool": {"driver": driver},
                "results": list(results),
            }
        ],
    }


def merge_sarif_logs(logs: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """Combine several single-tool SARIF logs into one multi-run log.

    SARIF models exactly this: one ``runs`` entry per tool.  GitHub's
    upload action ingests the merged document in a single call, which
    is how ``repro analyze`` ships every layer's results as one
    artifact.  Run order is preserved;
    :func:`validate_sarif` already checks every run independently."""
    if not logs:
        raise ValueError("merge_sarif_logs: need at least one log")
    runs: List[Dict[str, object]] = []
    for log in logs:
        runs.extend(log.get("runs", []))  # type: ignore[arg-type]
    return {
        "version": SARIF_VERSION,
        "$schema": SARIF_SCHEMA,
        "runs": runs,
    }


def validate_sarif(document: object) -> List[str]:
    """Structural validation against the SARIF 2.1.0 subset we emit.

    Returns a list of problems (empty = valid).  This is not a full
    JSON-schema validator — it checks every invariant GitHub's
    ingestion and our own tests rely on, with no new dependencies.
    """
    problems: List[str] = []
    if not isinstance(document, dict):
        return ["document is not an object"]
    if document.get("version") != SARIF_VERSION:
        problems.append(f"version must be {SARIF_VERSION!r}")
    if not isinstance(document.get("$schema"), str):
        problems.append("$schema missing")
    runs = document.get("runs")
    if not isinstance(runs, list) or not runs:
        return problems + ["runs must be a non-empty array"]
    for run_index, run in enumerate(runs):
        prefix = f"runs[{run_index}]"
        if not isinstance(run, dict):
            problems.append(f"{prefix} is not an object")
            continue
        driver = run.get("tool", {}).get("driver") if isinstance(
            run.get("tool"), dict
        ) else None
        if not isinstance(driver, dict) or not isinstance(driver.get("name"), str):
            problems.append(f"{prefix}.tool.driver.name missing")
            continue
        rule_ids = set()
        for rule in driver.get("rules", []):
            if not isinstance(rule, dict) or not isinstance(rule.get("id"), str):
                problems.append(f"{prefix}: malformed rule entry")
                continue
            rule_ids.add(rule["id"])
            short = rule.get("shortDescription")
            if not isinstance(short, dict) or not isinstance(
                short.get("text"), str
            ):
                problems.append(
                    f"{prefix}: rule {rule['id']!r} lacks shortDescription.text"
                )
        results = run.get("results")
        if not isinstance(results, list):
            problems.append(f"{prefix}.results must be an array")
            continue
        for result_index, result in enumerate(results):
            where = f"{prefix}.results[{result_index}]"
            if not isinstance(result, dict):
                problems.append(f"{where} is not an object")
                continue
            rule_id = result.get("ruleId")
            if not isinstance(rule_id, str):
                problems.append(f"{where}.ruleId missing")
            elif rule_id not in rule_ids:
                problems.append(f"{where}: ruleId {rule_id!r} not in rule table")
            message = result.get("message")
            if not isinstance(message, dict) or not isinstance(
                message.get("text"), str
            ):
                problems.append(f"{where}.message.text missing")
            locations = result.get("locations")
            if not isinstance(locations, list) or not locations:
                problems.append(f"{where}.locations must be non-empty")
                continue
            for location in locations:
                physical = (
                    location.get("physicalLocation")
                    if isinstance(location, dict)
                    else None
                )
                if not isinstance(physical, dict):
                    problems.append(f"{where}: missing physicalLocation")
                    continue
                artifact = physical.get("artifactLocation")
                if not isinstance(artifact, dict) or not isinstance(
                    artifact.get("uri"), str
                ):
                    problems.append(f"{where}: missing artifactLocation.uri")
                region = physical.get("region")
                if not isinstance(region, dict) or not isinstance(
                    region.get("startLine"), int
                ):
                    problems.append(f"{where}: missing region.startLine")
                elif region["startLine"] < 1:
                    problems.append(f"{where}: startLine must be >= 1")
    return problems
