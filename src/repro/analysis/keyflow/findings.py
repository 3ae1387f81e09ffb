"""KeyFlow's rule table and the report object.

Findings use the shared :class:`~repro.analysis.findings.Finding`.
Rules:

* ``tainted-flow`` — a value carrying key-material taint reaches a
  sink call (memory write, swap, page cache, logging, serialization).
* ``missing-scrub`` — an owned key container can leave its function
  without being scrubbed on some ``return`` or ``raise`` path.

Everything in a :class:`KeyFlowReport` is sorted; rendering the same
analysis twice is byte-identical (the repo-wide reports convention).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.analysis.findings import Finding, finding_ids, to_sarif

_RULE_DESCRIPTIONS: Dict[str, str] = {
    "tainted-flow": (
        "Key-material taint reaches a sink (simulated memory, swap, "
        "page cache, logging, or serialization)."
    ),
    "missing-scrub": (
        "An owned key container is not scrubbed on every exit path, "
        "including exception edges."
    ),
}


@dataclass
class KeyFlowReport:
    """Full analysis output: findings + leak set + provenance."""

    findings: List[Finding]
    #: Sorted functions where key material is statically live — the
    #: superset that must contain every KeySan-observed dynamic site.
    leak_set: List[str]
    files: List[str]
    function_count: int
    config: Dict[str, object]

    def finding_ids(self) -> List[str]:
        return finding_ids(self.findings)

    # ------------------------------------------------------------------
    def to_json_dict(self) -> Dict[str, object]:
        return {
            "tool": "keyflow",
            "files": list(self.files),
            "functions": self.function_count,
            "findings": [finding.to_json_dict() for finding in self.findings],
            "leak_set": list(self.leak_set),
            "config": self.config,
        }

    def to_sarif(self) -> Dict[str, object]:
        return to_sarif("keyflow", _RULE_DESCRIPTIONS, self.findings)

    def render_text(self) -> str:
        lines: List[str] = []
        lines.append("keyflow: static taint analysis of key material")
        lines.append(
            f"  {len(self.files)} files, {self.function_count} functions, "
            f"{len(self.leak_set)} in leak set, "
            f"{len(self.findings)} findings"
        )
        lines.append("")
        if self.findings:
            lines.append("findings:")
            for finding in self.findings:
                lines.append(
                    f"  {finding.rel_path}:{finding.line}: "
                    f"[{finding.rule}] {finding.message}"
                )
                lines.append(f"      id: {finding.baseline_id}")
        else:
            lines.append("findings: none")
        lines.append("")
        lines.append("leak set (functions where key material is live):")
        for name in self.leak_set:
            lines.append(f"  {name}")
        return "\n".join(lines) + "\n"
