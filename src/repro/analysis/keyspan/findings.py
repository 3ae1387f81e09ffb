"""KeySpan findings and the exposure-window report.

A :class:`Finding` is one *mint site* — a program point that
materializes a key copy — annotated with whether the scrub structure
covers the exception routes out of the minting function (the "missed
``finally``" verdict, a temporal fact no reachability layer can
state).  Rules are the copy kinds, so the SARIF rule table is the
taxonomy of windows, parallel to KeyCount's taxonomy of counts.

The report's headline payload is :attr:`KeySpanReport.windows`: for
every ProtectionLevel and every copy kind, the symbolic upper bound on
the mint→scrub event distance (``None`` = the mitigation makes the
copy vacuous; ⊤ renders ∞ = the copy may outlive the process).  The
ladder theorem is *strict narrowing*: stepping down the mitigation
ladder NONE → INTEGRATED must strictly shrink the lexicographic
metric (unbounded transient kinds, worst finite window, total finite
window, persistent copies), ending at a constant — O(1) ticks for
every transient copy — at INTEGRATED; HARDWARE then drops the last
persistent copy.  KeySan's measured per-tag windows are regression-
checked against these bounds at all six levels.

Baseline ids (``kind:function:op#ordinal``) exclude line numbers so
the checked-in baseline survives unrelated edits, matching the stack
convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..findings import Finding as BaseFinding
from ..findings import finding_ids, to_sarif
from ..keycount.findings import LADDER
from .config import KIND_ORDER
from .domain import Ticks

_RULE_DESCRIPTIONS: Dict[str, str] = {
    "crt-part": (
        "BN_bin2bn heap copy of an RSA CRT part; its exposure window "
        "is bounded only by the in-library d2i alignment hook."
    ),
    "pem-buffer": (
        "Heap PEM staging buffer; window ends at its free only when "
        "the free clears (application scrub or kernel zero-on-free)."
    ),
    "der-buffer": (
        "Heap DER staging buffer holding raw d/p/q bytes; window ends "
        "at its free only when the free clears."
    ),
    "mont-cache": (
        "Montgomery context holding transformed key parts; transient "
        "window per private operation below the alignment levels."
    ),
    "pagecache-pem": (
        "Page-cache copy of the PEM key file; unbounded window — no "
        "user-space scrub reaches it; only O_NOCACHE prevents it."
    ),
    "aligned-key-page": (
        "The consolidated mlocked key page: the one deliberate "
        "persistent copy, offloaded at the hardware level."
    ),
}


@dataclass(frozen=True)
class Finding(BaseFinding):
    """One mint site; ``rule`` is its copy kind and ``detail`` its
    ``op#ordinal`` within (rule, function)."""

    #: Do the scrubs (at the strongest software policy) also cover the
    #: exception routes out of the minting function?  ``False`` is the
    #: missed-``finally`` finding class: a raise between mint and scrub
    #: leaves the copy bounded only by the kernel teardown backstop.
    exception_covered: bool = False
    #: Mint unreachable from the configured deployment roots: reported,
    #: but not part of the per-level window table.
    deployed: bool = True

    def to_json_dict(self) -> Dict[str, object]:
        return {
            **super().to_json_dict(),
            "exception_covered": self.exception_covered,
            "deployed": self.deployed,
        }


@dataclass
class KeySpanReport:
    """Mint-site inventory + per-level symbolic exposure windows."""

    findings: List[Finding]
    #: level -> kind -> window (None = the copy is vacuous there).
    windows: Dict[str, Dict[str, Optional[Ticks]]]
    #: level -> kind -> exception-inclusive window: the steady-state
    #: window joined with the exception-route residual, which only the
    #: kernel zero-on-free teardown backstop bounds.
    exception_windows: Dict[str, Dict[str, Optional[Ticks]]]
    files: List[str]
    function_count: int
    config: Dict[str, object]

    def finding_ids(self) -> List[str]:
        return finding_ids(self.findings)

    # ------------------------------------------------------------------
    # window queries
    # ------------------------------------------------------------------
    def window(self, level: str, kind: str) -> Optional[Ticks]:
        return self.windows[level][kind]

    def transient_kinds(self) -> List[str]:
        return [k for k in KIND_ORDER if not self._is_persistent(k)]

    def persistent_kinds(self) -> List[str]:
        return [k for k in KIND_ORDER if self._is_persistent(k)]

    def _is_persistent(self, kind: str) -> bool:
        persistent = self.config.get("kinds", {}).get(kind, {})
        return bool(persistent.get("persistent"))

    def unbounded_transient_kinds(self, level: str) -> List[str]:
        return [
            kind
            for kind in self.transient_kinds()
            if (w := self.windows[level].get(kind)) is not None and w.top
        ]

    def worst_transient(self, level: str) -> Optional[Ticks]:
        """Join over all present transient windows (None = all vacuous)."""
        worst: Optional[Ticks] = None
        for kind in self.transient_kinds():
            window = self.windows[level].get(kind)
            if window is None:
                continue
            worst = window if worst is None else worst.join(window)
        return worst

    def level_metric(self, level: str, min_n: int = 1) -> Tuple[int, int, int, int]:
        """Lexicographic narrowing metric: (unbounded transient kinds,
        worst finite window, total finite window, persistent copies)."""
        unbounded = 0
        worst = 0
        total = 0
        for kind in self.transient_kinds():
            window = self.windows[level].get(kind)
            if window is None:
                continue
            if window.top:
                unbounded += 1
                continue
            value = window.evaluate(min_n) or 0
            worst = max(worst, value)
            total += value
        persistent = sum(
            1
            for kind in self.persistent_kinds()
            if self.windows[level].get(kind) is not None
        )
        return (unbounded, worst, total, persistent)

    def ladder_is_strictly_narrowing(self, min_n: int = 1) -> bool:
        """Every ladder step strictly shrinks the lexicographic window
        metric.  NONE → INTEGRATED each remove an unbounded transient
        kind or shrink the finite windows; INTEGRATED → HARDWARE drops
        the persistent aligned page while the (already constant)
        transient windows stay put."""
        for prev, nxt in zip(LADDER, LADDER[1:]):
            if not self.level_metric(nxt, min_n) < self.level_metric(prev, min_n):
                return False
        return True

    def integrated_is_constant(self) -> bool:
        """The paper's endpoint: at INTEGRATED every transient copy has
        a constant (no ∞, no N term) window."""
        for kind in self.transient_kinds():
            window = self.windows["INTEGRATED"].get(kind)
            if window is None:
                continue
            if window.top or window.per_conn:
                return False
        return True

    # ------------------------------------------------------------------
    # renderers
    # ------------------------------------------------------------------
    @staticmethod
    def _cell(window: Optional[Ticks]) -> str:
        return "—" if window is None else window.render()

    def _window_json(
        self, table: Dict[str, Dict[str, Optional[Ticks]]]
    ) -> Dict[str, object]:
        return {
            level: {
                kind: (None if w is None else w.to_json_dict())
                for kind, w in table[level].items()
            }
            for level in LADDER
        }

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "tool": "keyspan",
            "files": list(self.files),
            "functions": self.function_count,
            "findings": [finding.to_json_dict() for finding in self.findings],
            "windows": self._window_json(self.windows),
            "exception_windows": self._window_json(self.exception_windows),
            "metrics": {level: list(self.level_metric(level)) for level in LADDER},
            "ladder": list(LADDER),
            "config": self.config,
        }

    def to_sarif(self) -> Dict[str, object]:
        # Rule ids are namespaced "span-<kind>": the merged analyze
        # SARIF requires globally unique ruleIds, and KeyCount already
        # claims the bare copy-kind names for its *count* findings.
        return to_sarif(
            "keyspan", _RULE_DESCRIPTIONS, self.findings, prefix="span-",
            level=lambda f: "note" if f.exception_covered else "warning",
        )

    def render_text(self) -> str:
        lines: List[str] = []
        lines.append("KeySpan static exposure-window analysis")
        lines.append(
            f"  {len(self.files)} files, {self.function_count} functions, "
            f"{len(self.findings)} mint sites"
        )
        lines.append("")
        lines.append(
            "Per-level exposure windows in event ticks "
            "(N = connections, ∞ = unbounded, — = copy never exists):"
        )
        header = f"  {'level':<12}" + "".join(
            f"{kind:>18}" for kind in KIND_ORDER
        )
        lines.append(header)
        for level in LADDER:
            row = f"  {level:<12}"
            for kind in KIND_ORDER:
                row += f"{self._cell(self.windows[level].get(kind)):>18}"
            lines.append(row)
        lines.append("")
        lines.append(
            "Exception-route residual (steady window ⊔ raise-path; "
            "teardown-bounded only under kernel zero-on-free):"
        )
        for level in LADDER:
            row = f"  {level:<12}"
            for kind in KIND_ORDER:
                row += f"{self._cell(self.exception_windows[level].get(kind)):>18}"
            lines.append(row)
        lines.append("")
        if self.findings:
            lines.append("Mint sites:")
            for finding in self.findings:
                marks = []
                if not finding.exception_covered:
                    marks.append("no-finally-scrub")
                if not finding.deployed:
                    marks.append("undeployed")
                suffix = f"  [{', '.join(marks)}]" if marks else ""
                lines.append(
                    f"  [{finding.rule}] {finding.function} "
                    f"({finding.rel_path}:{finding.line}){suffix}"
                )
                lines.append(f"      {finding.message}")
        else:
            lines.append("No mint sites found.")
        return "\n".join(lines) + "\n"
