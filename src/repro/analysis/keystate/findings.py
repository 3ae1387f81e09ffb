"""KeyState findings and the report object.

A :class:`Finding` is one typestate violation: the shared
:class:`~repro.analysis.findings.Finding` plus the automaton it broke.
Unlike KeyFlow, every finding carries a **witness**: the in-function
event trace (CFG steps, innermost last) plus the caller chain that
establishes the object's entry state — enough to replay the violation
by hand.

Everything in a :class:`KeyStateReport` is sorted; rendering the same
analysis twice is byte-identical (the repo-wide reports convention).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.analysis.findings import Finding as BaseFinding
from repro.analysis.findings import finding_ids, to_sarif


@dataclass(frozen=True)
class WitnessStep:
    """One step of a witness path."""

    function: str  # fully-qualified: module.qualname
    rel_path: str
    line: int
    #: What happened here: "call" (caller chain), an event name, or
    #: "create".
    action: str
    #: Typestate after this step ("" for caller-chain steps).
    state: str = ""

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "function": self.function,
            "path": self.rel_path,
            "line": self.line,
            "action": self.action,
            "state": self.state,
        }

    def render(self) -> str:
        suffix = f" -> {self.state}" if self.state else ""
        return f"{self.rel_path}:{self.line} [{self.function}] {self.action}{suffix}"


@dataclass(frozen=True)
class Finding(BaseFinding):
    """One typestate violation; ``rule`` names the automaton's rule,
    e.g. ``serve-before-align``."""

    protocol: str  # automaton name, e.g. "rsa-key"
    witness: Tuple[WitnessStep, ...] = ()

    @property
    def sort_key(self) -> Tuple:
        return (self.protocol,) + super().sort_key

    def to_json_dict(self) -> Dict[str, object]:
        return {
            **super().to_json_dict(),
            "protocol": self.protocol,
            "witness": [step.to_json_dict() for step in self.witness],
        }


@dataclass
class KeyStateReport:
    """Full analysis output: findings + provenance."""

    findings: List[Finding]
    files: List[str]
    function_count: int
    #: Sorted automaton names that ran (ablations shrink this).
    protocols: List[str]
    #: rule name -> description, from the automata that ran.
    rule_descriptions: Dict[str, str]
    config: Dict[str, object]

    def finding_ids(self) -> List[str]:
        return finding_ids(self.findings)

    # ------------------------------------------------------------------
    def to_json_dict(self) -> Dict[str, object]:
        return {
            "tool": "keystate",
            "files": list(self.files),
            "functions": self.function_count,
            "protocols": list(self.protocols),
            "findings": [finding.to_json_dict() for finding in self.findings],
            "config": self.config,
        }

    def to_sarif(self) -> Dict[str, object]:
        return to_sarif("keystate", self.rule_descriptions, self.findings)

    def render_text(self) -> str:
        lines: List[str] = []
        lines.append("keystate: typestate verification of the mitigation-API lifecycle")
        lines.append(
            f"  {len(self.files)} files, {self.function_count} functions, "
            f"{len(self.protocols)} protocols, {len(self.findings)} findings"
        )
        lines.append("")
        if self.findings:
            lines.append("findings:")
            for finding in self.findings:
                lines.append(
                    f"  {finding.rel_path}:{finding.line}: "
                    f"[{finding.protocol}/{finding.rule}] {finding.message}"
                )
                lines.append(f"      id: {finding.baseline_id}")
                if finding.witness:
                    lines.append("      witness:")
                    for step in finding.witness:
                        lines.append(f"        {step.render()}")
        else:
            lines.append("findings: none")
        return "\n".join(lines) + "\n"
