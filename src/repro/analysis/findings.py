"""The finding schema every IR layer shares.

A :class:`Finding` is one reportable fact.  Its :attr:`baseline_id`
deliberately excludes line numbers: ``rule:function:detail`` stays
stable while code above it moves, so the reviewed baseline does not
drift on unrelated edits.

KeyFlow, KeyCount and KeyRecon report plain findings; KeyState and
KeySpan subclass :class:`Finding` for their extra fields.  Every layer
sorts with :func:`sort_findings` and exports SARIF through
:func:`to_sarif`, so reports stay byte-identical across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

from repro.analysis.sarif import sarif_log, sarif_result


@dataclass(frozen=True)
class Finding:
    """One static finding, stable across unrelated source edits."""

    rule: str
    function: str  # fully-qualified: module.qualname
    rel_path: str
    line: int
    detail: str  # stable discriminator within (rule, function)
    message: str  # human-readable one-liner

    @property
    def baseline_id(self) -> str:
        return f"{self.rule}:{self.function}:{self.detail}"

    @property
    def sort_key(self) -> Tuple:
        return (self.rule, self.function, self.detail, self.line)

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "function": self.function,
            "path": self.rel_path,
            "line": self.line,
            "detail": self.detail,
            "message": self.message,
            "id": self.baseline_id,
        }


def sort_findings(findings: Sequence[Finding]) -> List[Finding]:
    return sorted(findings, key=lambda finding: finding.sort_key)


def finding_ids(findings: Sequence[Finding]) -> List[str]:
    return [finding.baseline_id for finding in findings]


def to_sarif(
    tool: str,
    rules: Mapping[str, str],
    findings: Sequence[Finding],
    prefix: str = "",
    level: Callable[[Finding], str] = lambda finding: "warning",
) -> Dict[str, object]:
    """A single-run SARIF 2.1.0 log for one layer's findings.

    ``prefix`` namespaces the rule ids, so two layers naming rules
    alike still declare unique ids in the merged ``analyze`` log."""
    return sarif_log(
        tool_name=tool,
        rules={prefix + rule: text for rule, text in rules.items()},
        results=[
            sarif_result(
                rule_id=prefix + finding.rule,
                message=finding.message,
                path=finding.rel_path,
                line=finding.line,
                level=level(finding),
            )
            for finding in findings
        ],
    )
