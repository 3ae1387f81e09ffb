"""KeyRecon's rule table and the report object.

Findings use the shared :class:`~repro.analysis.findings.Finding`.
Rules:

* ``full-key-reconstructible`` — a structural attacker holding only
  the public key rebuilds the full private key from the fragments
  resident in this function.  The detail names every reconstruction
  rule that fires, so a function gaining a *new way* to be
  reconstructible is NEW drift even though it was already flagged.
* ``partial-reconstructible`` — only partial rules fire (e.g. ``iqmp``
  alone): the attacker gains leverage but not the key.
* ``fragment-concentration`` — a call that coalesces several private
  fragments into one contiguous region (``rsa_memory_align``): a
  mitigation against the *scanner* that concentrates the structural
  attacker's target.

Everything in a :class:`KeyReconReport` is sorted; rendering the same
analysis twice is byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.analysis.findings import Finding, finding_ids, to_sarif

_RULE_DESCRIPTIONS: Dict[str, str] = {
    "full-key-reconstructible": (
        "Fragments resident at this program point let an attacker who "
        "holds only the public key rebuild the full private key "
        "(factor division, CRT-exponent gcd, serialized blob, or "
        "Montgomery residue)."
    ),
    "partial-reconstructible": (
        "Resident fragments give a structural attacker partial "
        "leverage (e.g. iqmp narrows the factor search) without fully "
        "reconstructing the key."
    ),
    "fragment-concentration": (
        "This call coalesces multiple private-key fragments into one "
        "physically contiguous region — fewer scanner hits, but a "
        "single window for the structural attacker."
    ),
}

#: SARIF severity per rule: full reconstruction and concentration are
#: warnings, partial leverage is a note.
_RULE_LEVELS: Dict[str, str] = {
    "full-key-reconstructible": "warning",
    "partial-reconstructible": "note",
    "fragment-concentration": "warning",
}


@dataclass
class KeyReconReport:
    """Full analysis output: findings + reconstructible set + inventory."""

    findings: List[Finding]
    #: Sorted functions where a reconstruction rule fires (FULL_KEY or
    #: PARTIAL) — the static superset that must contain every program
    #: point the dynamic structural attackers (attacks/predict.py)
    #: rebuild a key from.
    reconstructible_set: List[str]
    #: function -> "FULL_KEY" | "PARTIAL" for every reconstructible
    #: function.
    verdicts: Dict[str, str]
    #: function -> sorted resident fragments (only non-empty entries).
    inventory: Dict[str, List[str]]
    files: List[str]
    function_count: int
    config: Dict[str, object]

    def finding_ids(self) -> List[str]:
        return finding_ids(self.findings)

    # ------------------------------------------------------------------
    def to_json_dict(self) -> Dict[str, object]:
        return {
            "tool": "keyrecon",
            "files": list(self.files),
            "functions": self.function_count,
            "findings": [finding.to_json_dict() for finding in self.findings],
            "reconstructible_set": list(self.reconstructible_set),
            "verdicts": dict(sorted(self.verdicts.items())),
            "inventory": {
                name: list(frags)
                for name, frags in sorted(self.inventory.items())
            },
            "config": self.config,
        }

    def to_sarif(self) -> Dict[str, object]:
        return to_sarif(
            "keyrecon", _RULE_DESCRIPTIONS, self.findings,
            level=lambda finding: _RULE_LEVELS.get(finding.rule, "note"),
        )

    def render_text(self) -> str:
        lines: List[str] = []
        lines.append(
            "keyrecon: static reconstructability of derived key fragments"
        )
        full = sum(
            1 for v in self.verdicts.values() if v == "FULL_KEY"
        )
        lines.append(
            f"  {len(self.files)} files, {self.function_count} functions, "
            f"{len(self.reconstructible_set)} reconstructible "
            f"({full} FULL_KEY), {len(self.findings)} findings"
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
        lines.append(
            "reconstructible set (verdict, resident fragments per function):"
        )
        for name in self.reconstructible_set:
            frags = ",".join(self.inventory.get(name, []))
            lines.append(f"  {name}  [{self.verdicts[name]}]  {{{frags}}}")
        return "\n".join(lines) + "\n"
