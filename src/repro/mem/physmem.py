"""Byte-addressable simulated physical memory.

The whole machine's RAM is a single :class:`bytearray`, divided into
fixed-size page frames.  This is the surface every attack in the paper
ultimately reads: the ext2 directory leak exposes stale bytes of
individual frames, the n_tty bug exposes a large contiguous window, and
the ``scanmemory`` kernel module linearly scans all of it.

Keeping the backing store as one flat ``bytearray`` makes pattern
search (``bytearray.find``) run at C speed, which is what lets the
reproduction scan a 256 MB configuration in seconds, matching the
paper's "about 5 seconds to scan the 256MB memory" observation.
"""

from __future__ import annotations

from itertools import compress
from operator import ne
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import BadAddressError
from repro.mem.bytesearch import (
    SPAN_BLOCK,
    ZERO_GAP,
    find_all_occurrences,
    find_all_sparse,
    find_in_windows,
    nonzero_spans,
)

#: Page size in bytes.  Matches the x86 kernel the paper patched.
PAGE_SIZE = 4096


class PhysicalMemory:
    """Flat simulated RAM of ``num_frames`` page frames.

    Addresses are plain integers in ``[0, size)``.  The kernel uses an
    identity mapping, so kernel "virtual" addresses equal physical
    addresses, as they effectively do for lowmem on the 32-bit kernels
    the paper targeted.
    """

    def __init__(self, num_frames: int, page_size: int = PAGE_SIZE) -> None:
        if num_frames <= 0:
            raise ValueError("num_frames must be positive")
        if page_size <= 0 or page_size & (page_size - 1):
            raise ValueError("page_size must be a positive power of two")
        self.page_size = page_size
        self.num_frames = num_frames
        self.size = num_frames * page_size
        self._data = bytearray(self.size)
        #: Per-frame modification counters.  Every mutator below bumps
        #: the counter of each frame it touches; incremental consumers
        #: (the scanner's cached re-scan path) compare them against a
        #: snapshot to find exactly the frames that changed.
        self._frame_gen = [0] * num_frames
        #: nonzero_intervals' cache: each data-bearing frame's span.
        self._spans: Dict[int, Tuple[int, int]] = {}
        self._span_gen = [0] * num_frames
        self._intervals: List[Tuple[int, int]] = []
        #: Optional KeySan hook target.  Every mutator below notifies it,
        #: and mutation happens *only* through these five methods, which
        #: is what makes the taint shadow exact.
        self.sanitizer = None

    # ------------------------------------------------------------------
    # address helpers
    # ------------------------------------------------------------------
    def frame_of(self, addr: int) -> int:
        """Return the frame number containing byte address ``addr``."""
        self._check_range(addr, 1)
        return addr // self.page_size

    def frame_base(self, frame: int) -> int:
        """Return the byte address of the first byte of ``frame``."""
        self._check_frame(frame)
        return frame * self.page_size

    def _check_frame(self, frame: int) -> None:
        if not 0 <= frame < self.num_frames:
            raise BadAddressError(f"frame {frame} out of range [0, {self.num_frames})")

    def _check_range(self, addr: int, length: int) -> None:
        if length < 0:
            raise BadAddressError(f"negative length {length}")
        if addr < 0 or addr + length > self.size:
            raise BadAddressError(
                f"range [{addr}, {addr + length}) outside physical memory of {self.size} bytes"
            )

    def _touch(self, addr: int, length: int) -> None:
        """Bump the generation of every frame overlapping the range."""
        if length <= 0:
            return
        first = addr // self.page_size
        last = (addr + length - 1) // self.page_size
        for frame in range(first, last + 1):
            self._frame_gen[frame] += 1

    def frame_generation(self, frame: int) -> int:
        """Modification counter of one frame (monotonically increasing)."""
        self._check_frame(frame)
        return self._frame_gen[frame]

    def frame_generations(self) -> Sequence[int]:
        """Copy of every frame's generation counter, indexed by frame."""
        return list(self._frame_gen)

    # ------------------------------------------------------------------
    # byte-level access
    # ------------------------------------------------------------------
    def read(self, addr: int, length: int) -> bytes:
        """Read ``length`` bytes starting at physical address ``addr``."""
        self._check_range(addr, length)
        return bytes(self._data[addr : addr + length])

    def write(self, addr: int, data: bytes) -> None:
        """Write ``data`` at physical address ``addr``."""
        self._check_range(addr, len(data))
        self._data[addr : addr + len(data)] = data
        self._touch(addr, len(data))
        if self.sanitizer is not None:
            self.sanitizer.on_write(addr, bytes(data))

    def fill(self, addr: int, length: int, value: int = 0) -> None:
        """Fill ``length`` bytes at ``addr`` with a constant byte."""
        self._check_range(addr, length)
        self._data[addr : addr + length] = bytes([value]) * length
        self._touch(addr, length)
        if self.sanitizer is not None:
            self.sanitizer.on_fill(addr, length)

    # ------------------------------------------------------------------
    # frame-level access
    # ------------------------------------------------------------------
    def read_frame(self, frame: int) -> bytes:
        """Return the full content of one page frame."""
        base = self.frame_base(frame)
        return bytes(self._data[base : base + self.page_size])

    def write_frame(self, frame: int, data: bytes) -> None:
        """Overwrite one page frame.  ``data`` must fit in a page."""
        if len(data) > self.page_size:
            raise BadAddressError(
                f"{len(data)} bytes do not fit in a {self.page_size}-byte frame"
            )
        base = self.frame_base(frame)
        self._data[base : base + len(data)] = data
        self._frame_gen[frame] += 1
        if self.sanitizer is not None:
            self.sanitizer.on_write(base, bytes(data))

    def clear_frame(self, frame: int) -> None:
        """Zero one frame — the simulated ``clear_highpage()``."""
        base = self.frame_base(frame)
        self._data[base : base + self.page_size] = b"\x00" * self.page_size
        self._frame_gen[frame] += 1
        if self.sanitizer is not None:
            self.sanitizer.on_clear_frame(frame)

    def copy_frame(self, src_frame: int, dst_frame: int) -> None:
        """Copy a whole frame — the COW ``copy_user_highpage()`` path."""
        src = self.frame_base(src_frame)
        dst = self.frame_base(dst_frame)
        self._data[dst : dst + self.page_size] = self._data[src : src + self.page_size]
        self._frame_gen[dst_frame] += 1
        if self.sanitizer is not None:
            self.sanitizer.on_copy_frame(src_frame, dst_frame)

    def frame_is_zero(self, frame: int) -> bool:
        """True if every byte of ``frame`` is zero."""
        base = self.frame_base(frame)
        return self._data[base : base + self.page_size].count(0) == self.page_size

    # ------------------------------------------------------------------
    # search — the heart of scanmemory and of dump analysis
    # ------------------------------------------------------------------
    def find_all(self, pattern: bytes, start: int = 0, end: int | None = None) -> List[int]:
        """Return every physical address where ``pattern`` occurs.

        Overlapping occurrences are reported (the kernel module's linear
        scan would also re-match at every byte offset).
        """
        return find_all_occurrences(self._data, pattern, start, end)

    def nonzero_intervals(self) -> List[Tuple[int, int]]:
        """Sorted ``[lo, hi)`` byte ranges covering every nonzero byte,
        for every pattern of a scan to share via :meth:`find_all_sparse`.

        Incremental over the frame generations: only frames written
        since the last call are read again (generation 0 = never written
        = zero).  Each is bounded in place to 64-byte granules by
        :meth:`frame_spans` (one compare for an all-zero frame), and only
        its first and last granule are stripped, so each frame's span is
        byte-exact: it starts at the frame's first nonzero byte and ends
        one past its last.  Spans less than ``ZERO_GAP`` apart merge."""
        gens = self._frame_gen
        if gens != self._span_gen:
            data, block = self._data, min(SPAN_BLOCK, self.page_size)
            changed = list(
                compress(range(self.num_frames), map(ne, gens, self._span_gen))
            )
            for frame, span in zip(changed, self.frame_spans(changed)):
                if span is None:
                    self._spans.pop(frame, None)
                    continue
                lo, hi = span
                self._spans[frame] = (
                    lo + block - len(data[lo : lo + block].lstrip(b"\0")),
                    hi - block + len(data[hi - block : hi].rstrip(b"\0")),
                )
            self._span_gen = list(gens)
            merged: List[Tuple[int, int]] = []
            for frame in sorted(self._spans):
                lo, hi = self._spans[frame]
                if merged and lo - merged[-1][1] < ZERO_GAP:
                    merged[-1] = (merged[-1][0], hi)
                else:
                    merged.append((lo, hi))
            self._intervals = merged
        return list(self._intervals)

    def find_all_sparse(
        self, pattern: bytes, intervals: List[Tuple[int, int]]
    ) -> List[int]:
        """:meth:`find_all`, probing only around ``intervals``.

        ``intervals`` must cover every nonzero byte of RAM in its
        current state (:meth:`nonzero_intervals` does); the result is
        then byte-identical to a full :meth:`find_all` pass.
        """
        return find_all_sparse(self._data, pattern, intervals)

    def find_in_windows(
        self, pattern: bytes, windows: Sequence[Tuple[int, int]]
    ) -> List[int]:
        """The occurrences of ``pattern`` lying entirely inside each of
        the byte ``windows``, window by window."""
        return find_in_windows(self._data, pattern, windows)

    def frame_spans(
        self, frames: Sequence[int]
    ) -> List[Optional[Tuple[int, int]]]:
        """Per frame, a ``[lo, hi)`` byte range holding all its data
        (None for an all-zero frame), to 64-byte granules: the cover of
        a few written frames, read in place."""
        size = self.page_size
        return nonzero_spans(
            self._data, [frame * size for frame in frames], size,
            min(SPAN_BLOCK, size),
        )

    def iter_frames(self) -> Iterator[Tuple[int, bytes]]:
        """Yield ``(frame_number, content)`` for every frame."""
        for frame in range(self.num_frames):
            yield frame, self.read_frame(frame)

    def snapshot(self) -> bytes:
        """Return an immutable copy of the whole RAM (a full core dump)."""
        return bytes(self._data)

    def raw_view(self) -> memoryview:
        """Zero-copy read-only view of RAM, for high-volume scanning."""
        return memoryview(self._data).toreadonly()

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PhysicalMemory(num_frames={self.num_frames}, "
            f"page_size={self.page_size}, size={self.size})"
        )
