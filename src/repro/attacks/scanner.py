"""``scanmemory``: the paper's loadable-kernel-module analog (§3.1).

Linearly scans all of physical memory for the key patterns; for every
hit it classifies the containing frame (allocated vs unallocated, and
what kind of allocation) and walks the reverse mapping to name the
owning processes — exactly the module's ``printOwningProcesses``:
anonymous pages report the PIDs chaining through the page's anon_vma;
allocated pages with no anon mapping report PID 0 (the kernel);
free pages report nobody.  The owners come from one PTE probe per
VMA on the page's anon_vma chain, at the vpn the page records
(:meth:`repro.mem.rmap.ReverseMap.owners_of`).

The scan charges simulated time at the paper's measured rate (about
5 seconds for 256 MB).  A repeated scan can run incrementally: it
searches only the data the frames written since the last scan hold,
plus the clean bytes a match may straddle into, and charges for the
dirty intervals the LKM would re-read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from operator import ne
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
    re-finds only the occurrences around frames whose generation
    changed (the ranges expanded by ``prefix length - 1`` so matches
    straddling a frame boundary are re-found), searching only those
    frames' nonzero granules and the clean bytes beside them
    (:meth:`_rescan_dirty`).  Suppression of overlapping matches and
    full/partial extents are recomputed from the cached occurrence
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
        gens = physmem.frame_generations()
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
        """Re-find the occurrences around changed frames; returns the
        dirty-interval byte count.

        The frames whose generation moved are merged into *dirty
        intervals*, each run expanded ``margin`` bytes (the longest
        prefix less one) to the left, so a match straddling into a
        dirty frame is re-found.  Every cached occurrence inside an
        interval is dropped and the interval searched again.  What is
        counted (``scanned_bytes``, and the clock charge) is the
        intervals' length, what the LKM would re-read.  What is
        searched is less: the interval and the tail a match may run
        into, minus the all-zero granules of its dirty frames
        (:meth:`_dirty_cover`), shifted per prefix by its first nonzero
        index as :func:`~repro.mem.bytesearch.find_all_sparse` does (an
        all-zero prefix searches the whole interval).  A mostly-empty
        dirty frame thus costs a few compares and one short ``find``
        per pattern, and each occurrence list is rebuilt by one merge
        of the kept and the new offsets.
        """
        physmem = self.kernel.physmem
        assert self._cached_gens is not None
        marks = bytes(map(ne, gens, self._cached_gens))
        dirty = list(compress(range(len(marks)), marks))
        if not dirty:
            return 0
        page = physmem.page_size
        prefixes = {
            name: self._prefix(pattern) for name, pattern in self.patterns.items()
        }
        margin = max(map(len, prefixes.values())) - 1
        intervals, covers = self._dirty_cover(
            dirty, physmem.frame_spans(dirty), page, physmem.size, margin
        )
        # A cached occurrence o lies in an interval iff a dirty frame
        # lies in [o // page, (o + margin) // page].
        stale = marks.find
        windows: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
        for name, prefix in prefixes.items():
            length = len(prefix)
            lead = length - len(prefix.lstrip(b"\0"))
            key = (lead, length)
            if key not in windows:
                windows[key] = self._windows(
                    intervals, covers, lead, length, physmem.size
                )
            kept = [
                offset for offset in self._occurrences[name]
                if stale(1, offset // page, (offset + margin) // page + 1) < 0
            ]
            kept += physmem.find_in_windows(prefix, windows[key])
            kept.sort()  # two sorted runs: one merge
            self._occurrences[name] = kept
        return sum(stop - start for start, stop in intervals)

    @staticmethod
    def _dirty_cover(
        dirty: List[int],
        spans: List[Optional[Tuple[int, int]]],
        page: int,
        size: int,
        margin: int,
    ) -> Tuple[List[Tuple[int, int]], List[List[Tuple[int, int]]]]:
        """The dirty intervals, and per interval the sorted byte ranges
        that may hold data.

        An interval ``[start, stop)`` is a run of dirty frames expanded
        ``margin`` bytes to the left, runs merged where they touch.  Its
        cover is ``[start, stop + margin)`` (clipped to RAM) minus the
        bytes each dirty frame's span (``spans``, from
        :meth:`PhysicalMemory.frame_spans`) shows to be zero: the clean
        bytes of the left margin, between runs and in the right tail
        are unknown and stay in."""
        intervals: List[Tuple[int, int]] = []
        covers: List[List[Tuple[int, int]]] = []
        cover: List[Tuple[int, int]] = []
        start = stop = opened = 0  # opened: start of the open cover range
        for frame, span in zip(dirty, spans):
            base = frame * page
            end = base + page
            if covers and base - margin <= stop:
                stop = end
            else:
                if covers:
                    intervals.append((start, stop))
                    cover.append((opened, min(size, stop + margin)))
                start = opened = max(0, base - margin)
                stop = end
                cover = []
                covers.append(cover)
            lo, hi = span if span is not None else (end, end)
            if lo > base:
                if base > opened:
                    cover.append((opened, base))
                opened = lo
            if hi < end:
                cover.append((opened, hi))
                opened = end
        intervals.append((start, stop))
        cover.append((opened, min(size, stop + margin)))
        return intervals, covers

    @staticmethod
    def _windows(
        intervals: List[Tuple[int, int]],
        covers: List[List[Tuple[int, int]]],
        lead: int,
        length: int,
        size: int,
    ) -> List[Tuple[int, int]]:
        """Sorted ``find`` windows for a prefix of ``length`` bytes whose
        first nonzero byte is at index ``lead``.

        An occurrence at ``o`` in interval ``[start, stop)`` puts that
        byte at ``o + lead`` inside a cover range ``[lo, hi)``, so ``o``
        lies in ``[lo - lead, hi - lead)`` and the match inside
        ``[lo - lead, hi - lead - 1 + length)``, clipped to
        ``[start, stop + length - 1)``.  Windows merge only within one
        interval: with a margin over half a page the last window of one
        interval may overlap the first of the next, but each finds only
        offsets in its own interval, so none is found twice and none
        between two intervals."""
        windows: List[Tuple[int, int]] = []
        tail = length - 1 - lead
        for (start, stop), cover in zip(intervals, covers):
            limit = min(size, stop + length - 1)
            if lead == length:  # all-zero prefix: the whole interval
                windows.append((start, limit))
                continue
            last = -1  # end of this interval's last window
            for lo, hi in cover:
                w_lo = lo - lead if lo - lead > start else start
                w_hi = hi + tail if hi + tail < limit else limit
                if w_hi - w_lo < length:
                    continue
                if w_lo <= last:
                    windows[-1] = (windows[-1][0], w_hi)
                else:
                    windows.append((w_lo, w_hi))
                last = w_hi
        return windows

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
