"""``scanmemory``: the paper's loadable-kernel-module analog (§3.1).

Linearly scans all of physical memory for the key patterns; for every
hit it classifies the containing frame (allocated vs unallocated, and
what kind of allocation) and walks the reverse mapping to name the
owning processes — exactly the module's ``printOwningProcesses``:
anonymous pages report the PIDs chaining through the page's anon_vma;
allocated pages with no anon mapping report PID 0 (the kernel);
free pages report nobody.

The scan charges simulated time at the paper's measured rate (about
5 seconds for 256 MB).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.attacks.keysearch import KeyPatternSet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.kernel import Kernel

#: Paper: "it took about 5 seconds to scan the 256MB memory".
SCAN_US_PER_MB = 5_000_000.0 / 256.0

#: The LKM reports a *partial* match from MIN (5) 32-bit words on:
#: enough surviving prefix bytes to identify a truncated key copy.
MIN_MATCH_BYTES = 20


@dataclass
class ScanMatch:
    """One key-copy hit in physical memory."""

    pattern: str
    address: int
    frame: int
    #: True if the frame currently belongs to someone.
    allocated: bool
    #: 'user' | 'pagecache' | 'kernel_buffer' | 'reserved' | 'free'
    region: str
    #: PIDs that map the frame ([0] = kernel-only, [] = free).
    owners: List[int]
    #: How many bytes of the pattern matched at this address.
    matched_bytes: int = 0
    #: True for a full-length match ("Full match found ..."), False
    #: for a truncated one ("Partial match found ...").
    full: bool = True


@dataclass
class ScanReport:
    """The output of one full memory scan."""

    matches: List[ScanMatch] = field(default_factory=list)
    scanned_bytes: int = 0

    @property
    def total(self) -> int:
        return len(self.matches)

    @property
    def full_count(self) -> int:
        return sum(1 for match in self.matches if match.full)

    @property
    def partial_count(self) -> int:
        return sum(1 for match in self.matches if not match.full)

    @property
    def allocated_count(self) -> int:
        return sum(1 for match in self.matches if match.allocated)

    @property
    def unallocated_count(self) -> int:
        return sum(1 for match in self.matches if not match.allocated)

    def by_pattern(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for match in self.matches:
            counts[match.pattern] = counts.get(match.pattern, 0) + 1
        return counts

    def by_region(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for match in self.matches:
            counts[match.region] = counts.get(match.region, 0) + 1
        return counts

    def locations(self) -> List[int]:
        """Physical addresses of all hits (the y-axis of Figures 5a/6a)."""
        return sorted(match.address for match in self.matches)


class MemoryScanner:
    """Full-physical-memory scanner with rmap attribution.

    Like the LKM, it matches on a leading prefix (``min_match`` bytes,
    the module's ``MIN`` words) and then extends the comparison: a
    match covering the whole pattern is *full*, anything shorter is
    *partial* — a truncated copy whose tail was overwritten or never
    disclosed.

    The scan reads RAM through :meth:`PhysicalMemory.raw_view` — no
    full-memory copy per pass — and can run **incrementally**: the
    scanner caches every prefix occurrence together with a snapshot of
    the per-frame generation counters, and ``scan(incremental=True)``
    re-searches only the byte ranges around frames whose generation
    changed (expanded by ``prefix length - 1`` so matches straddling a
    frame boundary are re-found).  Suppression of overlapping matches
    and full/partial extents are recomputed from the cached occurrence
    list, so the incremental report is byte-identical to a full pass.
    """

    def __init__(
        self,
        kernel: "Kernel",
        patterns: KeyPatternSet,
        min_match: int = MIN_MATCH_BYTES,
        include_partial: bool = True,
    ) -> None:
        if min_match <= 0:
            raise ValueError("min_match must be positive")
        self.kernel = kernel
        self.patterns = patterns
        self.min_match = min_match
        self.include_partial = include_partial
        #: Generation counters at the last scan (None = never scanned).
        self._cached_gens: Optional[List[int]] = None
        #: Per-pattern sorted prefix-occurrence offsets at the last scan.
        self._occurrences: Dict[str, List[int]] = {}

    def reset_cache(self) -> None:
        """Drop the incremental state; the next scan is a full pass."""
        self._cached_gens = None
        self._occurrences = {}

    def _prefix(self, pattern: bytes) -> bytes:
        return pattern[: self.min_match]

    def scan(self, incremental: bool = False) -> ScanReport:
        """One pass over all of RAM (a /proc read of the LKM).

        With ``incremental=True`` and a prior scan's cache, only the
        frames modified since that scan are re-searched; the report is
        identical to a full pass but ``scanned_bytes`` (and the charged
        simulated time) shrink to the changed ranges.
        """
        physmem = self.kernel.physmem
        gens = list(physmem.frame_generations())
        if incremental and self._cached_gens is not None:
            rescanned = self._rescan_dirty(gens)
        else:
            # One shared zero-skipping pass bounds every pattern's
            # search to the data-bearing stretches of RAM — identical
            # results to a full find_all per pattern at a fraction of
            # the cost (most frames are zero).
            intervals = physmem.nonzero_intervals()
            for name, pattern in self.patterns.items():
                self._occurrences[name] = physmem.find_all_sparse(
                    self._prefix(pattern), intervals
                )
            rescanned = physmem.size
        self._cached_gens = gens

        view = physmem.raw_view()
        report = ScanReport(scanned_bytes=rescanned)
        # Nothing changes a frame during a scan, so each frame hit is
        # classified (rmap walk included) once per scan.
        frames: Dict[int, Tuple[bool, str, List[int]]] = {}
        for name, pattern in self.patterns.items():
            last_end = -1
            for offset in self._occurrences[name]:
                if offset < last_end:
                    continue  # inside the previous match's extent
                matched = self._extent(view, offset, pattern)
                last_end = offset + matched
                full = matched == len(pattern)
                if not full and not self.include_partial:
                    continue
                frame = offset // physmem.page_size
                state = frames.get(frame)
                if state is None:
                    state = frames[frame] = self._classify(frame)
                allocated, region, owners = state
                report.matches.append(ScanMatch(
                    pattern=name,
                    address=offset,
                    frame=frame,
                    allocated=allocated,
                    region=region,
                    owners=list(owners),
                    matched_bytes=matched,
                    full=full,
                ))
        report.matches.sort(key=lambda match: match.address)
        self.kernel.clock.advance(
            SCAN_US_PER_MB * (rescanned / (1024 * 1024)), "scan"
        )
        return report

    def _rescan_dirty(self, gens: List[int]) -> int:
        """Re-search only changed ranges; returns the bytes re-scanned."""
        physmem = self.kernel.physmem
        assert self._cached_gens is not None
        cached = self._cached_gens
        dirty = [
            frame
            for frame, (now, then) in enumerate(zip(gens, cached))
            if now != then
        ]
        if not dirty:
            return 0
        margin = max(
            len(self._prefix(pattern)) for _, pattern in self.patterns.items()
        ) - 1
        intervals = self._dirty_intervals(dirty, physmem.page_size, margin)
        for name, pattern in self.patterns.items():
            prefix = self._prefix(pattern)
            occurrences = self._occurrences[name]
            for start, stop in intervals:
                lo = bisect.bisect_left(occurrences, start)
                hi = bisect.bisect_left(occurrences, stop)
                search_end = min(physmem.size, stop + len(prefix) - 1)
                occurrences[lo:hi] = physmem.find_all(prefix, start, search_end)
        return sum(stop - start for start, stop in intervals)

    @staticmethod
    def _dirty_intervals(
        dirty: List[int], page_size: int, margin: int
    ) -> List[Tuple[int, int]]:
        """Merge dirty frames into byte ranges, expanded ``margin``
        bytes to the left so prefix matches straddling into a dirty
        frame are re-evaluated."""
        intervals: List[Tuple[int, int]] = []
        for frame in dirty:
            start = max(0, frame * page_size - margin)
            stop = (frame + 1) * page_size
            if intervals and start <= intervals[-1][1]:
                intervals[-1] = (intervals[-1][0], max(intervals[-1][1], stop))
            else:
                intervals.append((start, stop))
        return intervals

    @staticmethod
    def _extent(view, offset: int, pattern: bytes) -> int:
        """Bytes of ``pattern`` matching at ``offset`` (>= the prefix)."""
        end = min(len(view), offset + len(pattern))
        n = end - offset
        chunk = bytes(view[offset:end])
        if chunk == pattern[:n]:
            return n
        # Truncated copy: locate the first divergent byte.  Only runs
        # for partial matches, so the per-byte loop stays off the hot
        # path (a full match is one memcmp above).
        matched = 0
        while chunk[matched] == pattern[matched]:
            matched += 1
        return matched

    def _classify(self, frame: int) -> Tuple[bool, str, List[int]]:
        """``(allocated, region, owners)`` of one frame."""
        page = self.kernel.page(frame)
        owners = self.kernel.rmap.owners_of(page)
        if page.reserved:
            region = "reserved"
        elif page.in_pagecache:
            region = "pagecache"
        elif page.anonymous:
            region = "user"
        elif page.allocated:
            region = "kernel_buffer"
        else:
            region = "free"
        return page.allocated, region, owners
