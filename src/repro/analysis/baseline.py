"""Reviewed-findings baselines: CI fails only on *drift*.

The simulator's whole point is modeling key leakage, so static-analysis
findings inside ``src/repro/`` are expected — each one is reviewed once
and recorded in a per-tool baseline file with a one-line justification.
CI then fails when

* a **new** finding appears that is not in the baseline (a new finding
  somebody has not looked at), or
* a baseline entry goes **stale** (the finding disappeared — the entry
  must be deleted so the baseline never rots into a blanket allow).

Blanket suppressions are structurally impossible: the file maps one
finding id to one non-empty justification string.

This module is tool-agnostic shared infrastructure: every IR layer
gates on it through ``repro analyze``, so their drift semantics cannot
diverge.  A report only needs a ``finding_ids()`` method returning
stable, line-number-free ids.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Protocol


class FindingsReport(Protocol):
    """Anything with stable finding ids can be baselined."""

    def finding_ids(self) -> List[str]: ...


@dataclass
class BaselineDrift:
    """Difference between a report and the reviewed baseline."""

    new: List[str]  # finding ids present in the report, not the baseline
    stale: List[str]  # baseline ids no longer produced by the analysis
    tool: str = "analysis"

    @property
    def ok(self) -> bool:
        return not self.new and not self.stale

    def render_text(self) -> str:
        if self.ok:
            return f"{self.tool} baseline: clean (no drift)\n"
        lines: List[str] = [f"{self.tool} baseline: DRIFT detected"]
        for finding_id in self.new:
            lines.append(f"  NEW (review + justify or fix): {finding_id}")
        for finding_id in self.stale:
            lines.append(f"  STALE (delete from baseline): {finding_id}")
        return "\n".join(lines) + "\n"


def load_baseline(path: Path) -> Dict[str, str]:
    """Load ``{finding_id: justification}``; every justification must be
    a non-empty string — an empty one is a blanket suppression."""
    baseline_path = Path(path)
    if not baseline_path.exists():
        return {}
    payload = json.loads(baseline_path.read_text(encoding="utf-8"))
    entries = payload.get("findings", {})
    if not isinstance(entries, dict):
        raise ValueError(f"{baseline_path}: 'findings' must be an object")
    for finding_id, justification in entries.items():
        if not isinstance(justification, str) or not justification.strip():
            raise ValueError(
                f"{baseline_path}: finding {finding_id!r} has no justification "
                "(empty entries are blanket suppressions and are rejected)"
            )
    return dict(entries)


def compare_baseline(
    report: FindingsReport, baseline: Dict[str, str], tool: str = "analysis"
) -> BaselineDrift:
    produced = set(report.finding_ids())
    recorded = set(baseline)
    return BaselineDrift(
        new=sorted(produced - recorded),
        stale=sorted(recorded - produced),
        tool=tool,
    )


def write_baseline(
    report: FindingsReport,
    path: Path,
    existing: Optional[Dict[str, str]] = None,
    tool: str = "analysis",
) -> Path:
    """Write the baseline for ``report``, preserving justifications for
    ids that already had one; new ids get an explicit TODO marker that
    :func:`load_baseline` accepts but review must replace."""
    baseline_path = Path(path)
    kept = existing if existing is not None else {}
    entries = {
        finding_id: kept.get(finding_id, "TODO: review and justify")
        for finding_id in sorted(set(report.finding_ids()))
    }
    payload = {
        "tool": tool,
        "findings": entries,
    }
    baseline_path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return baseline_path
