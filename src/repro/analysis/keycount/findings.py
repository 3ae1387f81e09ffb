"""KeyCount's rule table and the quantitative report object.

A finding (the shared :class:`~repro.analysis.findings.Finding`) is
one *copy site* — a program point that can materialize a copy of key
material — annotated with its deployment-weighted symbolic copy bound.
Rules are the copy kinds (``crt-part``, ``mont-cache``,
``pagecache-pem``, ``aligned-key-page``, ``temp-buffer``,
``swap-out``), so the SARIF rule table doubles as the taxonomy of the
paper's copy inventory.

The report's headline payload is :attr:`KeyCountReport.bounds`: for
every ProtectionLevel and every memory-region class, the symbolic
static upper bound on resident key copies.  The containment regression
checks KeySan's dynamic page-grouped census against these bounds, and
the ladder test checks each level's bound vector strictly dominates
the next (product order: every region ≤, at least one <) down to at
most one allocated copy at INTEGRATED — the paper's headline number.

Baseline ids (``kind:function:op#ordinal``) exclude line numbers so
the checked-in baseline survives unrelated edits, matching the stack
convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.analysis.findings import Finding, finding_ids, to_sarif

from ..ir.deployment import LADDER
from ..ir.domain import Count
from .config import REGION_CLASSES

_RULE_DESCRIPTIONS: Dict[str, str] = {
    "crt-part": (
        "BN_bin2bn heap copy of an RSA CRT part; eliminated only by "
        "the library-level d2i alignment (must-scrub inside the call)."
    ),
    "mont-cache": (
        "Montgomery pre-computation cache holding transformed key "
        "parts; relocated into the protected region by alignment."
    ),
    "pagecache-pem": (
        "Page-cache copy of the PEM key file from buffered reads; "
        "killed by O_NOCACHE-style I/O."
    ),
    "aligned-key-page": (
        "The consolidated page-aligned mlocked key region — the single "
        "allocated copy the paper permits at the integrated level."
    ),
    "temp-buffer": (
        "Secret staging buffer freed without clearing; survives in the "
        "freed region until the kernel zero-on-free patch scrubs it."
    ),
    "swap-out": (
        "Key page written to the swap device by reclaim; mlock via "
        "alignment makes key pages ineligible."
    ),
}


@dataclass
class KeyCountReport:
    """Copy-site inventory + per-level symbolic copy bounds."""

    findings: List[Finding]
    #: level name -> region class -> symbolic bound.
    bounds: Dict[str, Dict[str, Count]]
    files: List[str]
    function_count: int
    config: Dict[str, object]

    def finding_ids(self) -> List[str]:
        return finding_ids(self.findings)

    # ------------------------------------------------------------------
    # bound queries
    # ------------------------------------------------------------------
    def bound(self, level: str, region: str) -> Count:
        return self.bounds[level][region]

    def total_bound(self, level: str) -> Count:
        total = Count.zero()
        for region in REGION_CLASSES:
            total = total.add(self.bounds[level][region])
        return total

    def evaluate(self, level: str, region: str, n_conn: int) -> Optional[int]:
        """Concrete bound at ``N = n_conn`` (None = unbounded)."""
        return self.bounds[level][region].evaluate(n_conn)

    def evaluate_total(self, level: str, n_conn: int) -> Optional[int]:
        return self.total_bound(level).evaluate(n_conn)

    def ladder_is_strictly_decreasing(self, min_n: int = 1) -> bool:
        """Each ladder step strictly shrinks the *total* copy bound for
        every connection count ``n >= min_n``.  The comparison is on
        totals because adjacent levels are genuinely incomparable
        region-wise — the kernel patch zeroes the freed region while
        alignment empties the allocated one — yet every step removes
        strictly more copies overall, which is the paper's claim."""
        for prev, nxt in zip(LADDER, LADDER[1:]):
            a, b = self.total_bound(prev), self.total_bound(nxt)
            if not a.strictly_covers(b, min_n=min_n):
                return False
        return True

    # ------------------------------------------------------------------
    # renderers
    # ------------------------------------------------------------------
    def to_json_dict(self) -> Dict[str, object]:
        return {
            "tool": "keycount",
            "files": list(self.files),
            "functions": self.function_count,
            "findings": [finding.to_json_dict() for finding in self.findings],
            "bounds": {
                level: {
                    region: self.bounds[level][region].to_json_dict()
                    for region in REGION_CLASSES
                }
                for level in LADDER
            },
            "ladder": list(LADDER),
            "config": self.config,
        }

    def to_sarif(self) -> Dict[str, object]:
        return to_sarif(
            "keycount", _RULE_DESCRIPTIONS, self.findings,
            level=lambda finding: "note",
        )

    def render_text(self) -> str:
        lines: List[str] = []
        lines.append("KeyCount static copy-bound analysis")
        lines.append(
            f"  {len(self.files)} files, {self.function_count} functions, "
            f"{len(self.findings)} copy sites"
        )
        lines.append("")
        lines.append("Per-level static copy bounds (N = connections):")
        header = f"  {'level':<12}" + "".join(
            f"{region:>12}" for region in REGION_CLASSES
        ) + f"{'total':>12}"
        lines.append(header)
        for level in LADDER:
            row = f"  {level:<12}"
            for region in REGION_CLASSES:
                row += f"{self.bounds[level][region].render():>12}"
            row += f"{self.total_bound(level).render():>12}"
            lines.append(row)
        lines.append("")
        if self.findings:
            lines.append("Copy sites:")
            for finding in self.findings:
                lines.append(
                    f"  [{finding.rule}] {finding.function} "
                    f"({finding.rel_path}:{finding.line})"
                )
                lines.append(f"      {finding.message}")
        else:
            lines.append("No copy sites found.")
        return "\n".join(lines) + "\n"
