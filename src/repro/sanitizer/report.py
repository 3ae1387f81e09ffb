"""Structured KeySan output: diagnostics, the taint report, and the
scanner cross-check.

A :class:`TaintReport` is the exact ground truth the paper's
``scanmemory`` methodology lacked: for every secret it knows *which
bytes* of memory carry it, *which simulated call site* planted them,
and *why they are dangerous* (freed uncleared, swapped out, resident
in the page cache, disclosed by an attack).  `cross_check` compares
that oracle against a :class:`~repro.attacks.scanner.ScanReport`; a
disagreement in either direction is a finding, not a tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

#: Diagnostic kinds, in severity order.
DIAGNOSTIC_KINDS = (
    "disclosure",          # an attack primitive read tainted bytes
    "swap-out-tainted",    # tainted page written to the swap device
    "freed-tainted-frame", # frame freed without clear_frame, taint aboard
    "pagecache-residue",   # tainted page-cache page still resident
)


@dataclass
class TaintDiagnostic:
    """One structured finding from the runtime sanitizer."""

    #: One of :data:`DIAGNOSTIC_KINDS`.
    kind: str
    #: Physical frame involved (None for device-level findings).
    frame: int | None
    #: Secret name -> tainted bytes involved in this event.
    tags: Dict[str, int]
    #: Simulated call sites that originally planted the tainted bytes.
    origins: Tuple[str, ...]
    #: Simulated call site whose action triggered the diagnostic.
    trigger_site: str
    detail: str = ""

    @property
    def tainted_bytes(self) -> int:
        return sum(self.tags.values())

    def render(self) -> str:
        tags = ", ".join(f"{name}:{count}B" for name, count in sorted(self.tags.items()))
        where = f"frame {self.frame}" if self.frame is not None else "device"
        origins = "; ".join(self.origins) or "?"
        line = (
            f"[{self.kind}] {where} holds {tags} "
            f"(planted by {origins}; triggered by {self.trigger_site})"
        )
        if self.detail:
            line += f" — {self.detail}"
        return line


@dataclass
class CrossCheckFinding:
    """One disagreement between the taint oracle and the scanner."""

    #: 'oracle-missed-copy' | 'count-mismatch' | 'scanner-missed-fragment'
    kind: str
    pattern: str
    detail: str

    def render(self) -> str:
        return f"[{self.kind}] {self.pattern}: {self.detail}"


@dataclass
class CrossCheckResult:
    """Outcome of oracle-vs-scanner validation."""

    findings: List[CrossCheckFinding] = field(default_factory=list)
    #: pattern -> (oracle full copies, scanner full copies)
    counts: Dict[str, Tuple[int, int]] = field(default_factory=dict)

    @property
    def consistent(self) -> bool:
        """True when the scanner saw exactly what the oracle tracked.

        ``scanner-missed-fragment`` findings do not break consistency:
        tail fragments without the pattern prefix are *expected* scanner
        blind spots (the motivation for having an oracle at all).
        """
        return all(f.kind == "scanner-missed-fragment" for f in self.findings)

    def render(self) -> str:
        lines = []
        for pattern, (oracle, scanner) in sorted(self.counts.items()):
            verdict = "ok" if oracle == scanner else "MISMATCH"
            lines.append(f"  {pattern:>6}: oracle={oracle} scanner={scanner} [{verdict}]")
        for finding in self.findings:
            lines.append("  " + finding.render())
        status = "CONSISTENT" if self.consistent else "INCONSISTENT"
        lines.append(f"  => oracle and scanner are {status}")
        return "\n".join(lines)


@dataclass(frozen=True)
class ExposureWindow:
    """One (secret, physical page) residency interval on the sanitizer's
    monotone event clock.

    Born at the tick the tag's bytes first appeared in the page, closed
    at the tick an overwrite/clear removed the last of them (``close is
    None`` while the copy is still resident).  The measured counterpart
    of KeySpan's static mint→scrub tick bounds: the containment
    regression asserts every *closed* window at a ProtectionLevel fits
    under the static per-level bound."""

    tag: str
    page: int
    birth: int
    close: int | None

    @property
    def closed(self) -> bool:
        return self.close is not None

    def duration(self, now: int | None = None) -> int:
        """Ticks the copy was (or has been) resident."""
        if self.close is not None:
            return self.close - self.birth
        if now is None:
            raise ValueError("open window needs `now` to have a duration")
        return now - self.birth


#: KeySan page region -> KeyCount static region class.
REGION_CLASS_OF = {
    "user": "allocated",
    "kernel_buffer": "allocated",
    "reserved": "allocated",
    "free": "freed",
    "pagecache": "pagecache",
}

#: Region classes of the static/dynamic copy census, in report order
#: (mirrors ``repro.analysis.keycount.config.REGION_CLASSES``).
COPY_CENSUS_REGIONS = ("allocated", "freed", "pagecache", "swap")


@dataclass(frozen=True)
class CopyRecord:
    """One physical page holding at least one full key-pattern copy.

    The unit of the quantitative census is the *page*, not the pattern
    match: the paper counts "copies of the key" by where they live, and
    six CRT parts packed into one aligned page are one copy, not six.
    This is also the unit KeyCount's static bounds are stated in."""

    page: int
    #: KeySan region of the page (user/pagecache/kernel_buffer/free/…).
    region: str
    #: Static region class the page counts toward (allocated/freed/…).
    region_class: str
    #: Pattern names with a full copy starting in this page.
    patterns: Tuple[str, ...]
    #: Call sites that planted the page's tainted bytes.
    origins: Tuple[str, ...]


@dataclass
class TaintReport:
    """Ground-truth taint state of the whole machine at one instant
    (counts and records only; no copy of RAM or swap is kept)."""

    #: Secret name -> tainted bytes currently in RAM.
    by_tag: Dict[str, int] = field(default_factory=dict)
    #: Region name (user/pagecache/kernel_buffer/free/reserved) -> bytes.
    by_region: Dict[str, int] = field(default_factory=dict)
    #: Pattern name -> full in-RAM copies *tracked by the oracle*.
    full_copies: Dict[str, int] = field(default_factory=dict)
    #: Pattern name -> full copies present in RAM but NOT fully tainted
    #: (an oracle miss; must be zero for a healthy sanitizer).
    untracked_copies: Dict[str, int] = field(default_factory=dict)
    #: Tainted fragments that carry no full copy (partial leaks).
    fragments: int = 0
    #: Distinct physical pages holding full key-pattern copies.
    copies: List[CopyRecord] = field(default_factory=list)
    #: Pattern name -> occurrences in the raw swap device image.
    swap_hits: Dict[str, int] = field(default_factory=dict)
    diagnostics: List[TaintDiagnostic] = field(default_factory=list)
    #: Originating call site -> {secret name -> bytes planted}.
    site_table: Dict[str, Dict[str, int]] = field(default_factory=dict)
    tainted_bytes_total: int = 0
    #: Sanitizer event-clock value at report time.
    clock: int = 0
    #: Closed (secret, page) residency intervals, in close order.
    exposure_windows: List[ExposureWindow] = field(default_factory=list)
    #: Windows still open at report time (``close is None``).
    open_exposures: List[ExposureWindow] = field(default_factory=list)
    #: Pattern name -> pattern bytes, kept for cross_check.
    _patterns: Dict[str, bytes] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def copy_census(self) -> Dict[str, int]:
        """Dynamic copy count per static region class, plus ``total``.

        Counts distinct pages from :attr:`copies` (grouped by
        :data:`REGION_CLASS_OF`) and swap-device pattern hits — the
        exact quantity KeyCount's per-level static bounds must
        dominate (``dynamic <= static`` at every ProtectionLevel)."""
        census = {region: 0 for region in COPY_CENSUS_REGIONS}
        for record in self.copies:
            census[record.region_class] += 1
        census["swap"] = sum(self.swap_hits.values())
        census["total"] = sum(census[region] for region in COPY_CENSUS_REGIONS)
        return census

    # ------------------------------------------------------------------
    def exposure_histogram(self) -> Dict[str, List[int]]:
        """Per-tag sorted list of closed-window durations, in ticks —
        the measured distribution KeySpan's static bounds must cover."""
        histogram: Dict[str, List[int]] = {}
        for window in self.exposure_windows:
            histogram.setdefault(window.tag, []).append(window.duration())
        for durations in histogram.values():
            durations.sort()
        return histogram

    def worst_closed_exposure(self) -> int:
        """Longest closed window in ticks (0 when none closed)."""
        return max(
            (w.duration() for w in self.exposure_windows), default=0
        )

    # ------------------------------------------------------------------
    def observed_sites(self, prefix: str = "repro.") -> List[str]:
        """Call sites this report attributes secret bytes to: planting
        sites from ``site_table`` plus all diagnostic origins (trigger
        sites excluded — they expose bytes, they don't move them).
        Mirrors :meth:`repro.sanitizer.keysan.KeySan.observed_sites`
        for workloads that only kept the report."""
        sites = set(self.site_table)
        for diagnostic in self.diagnostics:
            sites.update(diagnostic.origins)
        return sorted(site for site in sites if site.startswith(prefix))

    # ------------------------------------------------------------------
    # scanner validation
    # ------------------------------------------------------------------
    def cross_check(self, scan_report) -> CrossCheckResult:
        """Validate a :class:`~repro.attacks.scanner.ScanReport` against
        this oracle.  Disagreements become findings:

        * a scanner full match whose bytes the oracle never tainted is
          an ``oracle-missed-copy`` (sanitizer bug — a copy path
          escaped instrumentation);
        * differing full-copy counts are a ``count-mismatch`` (scanner
          under- or double-count, or an oracle miss);
        * tainted fragments the scanner cannot see (no pattern prefix)
          are reported as ``scanner-missed-fragment`` — informational,
          they quantify the scanner's structural blind spot.
        """
        result = CrossCheckResult()
        scanner_full: Dict[str, int] = {}
        for match in scan_report.matches:
            if match.full:
                scanner_full[match.pattern] = scanner_full.get(match.pattern, 0) + 1
        for pattern in self._patterns:
            oracle = self.full_copies.get(pattern, 0)
            scanner = scanner_full.get(pattern, 0)
            result.counts[pattern] = (oracle, scanner)
            untracked = self.untracked_copies.get(pattern, 0)
            if untracked:
                result.findings.append(
                    CrossCheckFinding(
                        kind="oracle-missed-copy",
                        pattern=pattern,
                        detail=f"{untracked} full copies in RAM carry no taint",
                    )
                )
            if oracle != scanner:
                result.findings.append(
                    CrossCheckFinding(
                        kind="count-mismatch",
                        pattern=pattern,
                        detail=f"oracle tracked {oracle} full copies, "
                               f"scanner reported {scanner}",
                    )
                )
        if self.fragments:
            result.findings.append(
                CrossCheckFinding(
                    kind="scanner-missed-fragment",
                    pattern="*",
                    detail=f"{self.fragments} tainted fragments carry key bytes "
                           f"a prefix-anchored scanner cannot attribute",
                )
            )
        return result

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def diagnostics_by_kind(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for diag in self.diagnostics:
            counts[diag.kind] = counts.get(diag.kind, 0) + 1
        return counts

    def render(self, max_diagnostics: int = 20) -> str:
        lines = [f"KeySan taint report — {self.tainted_bytes_total} tainted bytes in RAM"]
        if self.by_tag:
            lines.append("  by secret : " + ", ".join(
                f"{name}={count}B" for name, count in sorted(self.by_tag.items())))
        if self.by_region:
            lines.append("  by region : " + ", ".join(
                f"{name}={count}B" for name, count in sorted(self.by_region.items())))
        lines.append("  full copies tracked : " + (", ".join(
            f"{name}={count}" for name, count in sorted(self.full_copies.items()))
            or "none"))
        if self.untracked_copies and any(self.untracked_copies.values()):
            lines.append("  UNTRACKED copies    : " + ", ".join(
                f"{name}={count}" for name, count in sorted(self.untracked_copies.items())
                if count))
        lines.append(f"  partial fragments   : {self.fragments}")
        if self.exposure_windows or self.open_exposures:
            histogram = self.exposure_histogram()
            summary = ", ".join(
                f"{tag}:{len(durations)}×(max {durations[-1]}t)"
                for tag, durations in sorted(histogram.items())
            )
            lines.append(
                f"  exposure windows    : {len(self.exposure_windows)} closed"
                + (f" [{summary}]" if summary else "")
                + f", {len(self.open_exposures)} open at tick {self.clock}"
            )
        if self.swap_hits and any(self.swap_hits.values()):
            lines.append("  swap device hits    : " + ", ".join(
                f"{name}={count}" for name, count in sorted(self.swap_hits.items())
                if count))
        if self.site_table:
            lines.append("  leaks by originating call site:")
            ordered = sorted(
                self.site_table.items(),
                key=lambda item: -sum(item[1].values()),
            )
            for site, tags in ordered:
                tag_text = ", ".join(
                    f"{name}:{count}B" for name, count in sorted(tags.items()))
                lines.append(f"    {site:<48} {tag_text}")
        by_kind = self.diagnostics_by_kind()
        if by_kind:
            lines.append("  diagnostics: " + ", ".join(
                f"{kind}={count}" for kind, count in sorted(by_kind.items())))
            for diag in self.diagnostics[:max_diagnostics]:
                lines.append("    " + diag.render())
            if len(self.diagnostics) > max_diagnostics:
                lines.append(
                    f"    ... and {len(self.diagnostics) - max_diagnostics} more")
        return "\n".join(lines)
