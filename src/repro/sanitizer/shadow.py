"""Byte-granular taint shadow over simulated physical memory.

Two parallel flat arrays mirror the machine's RAM:

* ``tags``    — which secret each byte currently carries (0 = clean);
  a :class:`bytearray`, one byte per RAM byte (up to 255 secrets);
* ``origins`` — which simulated call site planted that byte; an
  ``array('H')``, one 16-bit id per RAM byte, so long campaigns can
  intern up to 65535 distinct call sites (the old single-byte shadow
  died with ``ValueError`` past 255).

Flat arrays mean bulk operations (clearing a frame, copying a frame
for COW, counting taint in a freed block) run as C-speed slice
assignments — the shadow adds near-zero overhead to the paths it
instruments, mirroring how hardware-assisted taint trackers keep
shadow memory flat.  Beside them sits a set of the blocks (pages) that
may hold taint, so a whole-memory walk visits only those blocks, never
the clean rest of RAM.  Inside a block, clean stretches are skipped
with :func:`~repro.mem.bytesearch.first_nonzero` and same-tag/same-
origin runs are measured with compiled repeated-unit patterns, so
nothing iterates Python-per-byte on the hot paths.

Tag and origin values are small integer ids; the interning tables live
in :class:`~repro.sanitizer.keysan.KeySan`, keeping this module a pure
mechanism with no knowledge of keys or kernels.
"""

from __future__ import annotations

import re
from array import array
from dataclasses import dataclass
from typing import Dict, Iterator, List, Pattern, Set, Tuple

from repro.mem.bytesearch import first_nonzero

#: Highest internable call-site id (16-bit origin shadow entries).
MAX_ORIGIN_ID = 0xFFFF

#: Highest registrable secret id (tag shadow entries stay one byte).
MAX_TAG_ID = 0xFF

_H_ZERO = array("H", (0,))

#: Compiled ``(?:unit)+`` patterns by repeat unit, for run measurement.
_RUN_CACHE: Dict[bytes, Pattern[bytes]] = {}


def _run_pattern(unit: bytes) -> Pattern[bytes]:
    pattern = _RUN_CACHE.get(unit)
    if pattern is None:
        if len(_RUN_CACHE) > 512:
            _RUN_CACHE.clear()
        pattern = _RUN_CACHE[unit] = re.compile(
            b"(?:" + re.escape(unit) + b")+"
        )
    return pattern


@dataclass(frozen=True)
class TaintRun:
    """One maximal run of identically-tagged tainted bytes."""

    start: int
    length: int
    tag_id: int
    origin_id: int

    @property
    def end(self) -> int:
        return self.start + self.length


class ShadowMap:
    """Per-byte taint state for a flat address space of ``size`` bytes,
    walked in ``block``-byte windows (the machine's page size)."""

    def __init__(self, size: int, block: int = 4096) -> None:
        if size <= 0:
            raise ValueError("shadow size must be positive")
        if block <= 0:
            raise ValueError("block must be positive")
        self.size = size
        self.block = block
        self._tags = bytearray(size)
        self._origins = array("H", bytes(2 * size))
        #: Indices of the blocks that may hold taint: every tainted
        #: block is here; a clean one leaves when a walk finds it.
        self._blocks: Set[int] = set()

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def _check(self, addr: int, length: int) -> None:
        if length < 0 or addr < 0 or addr + length > self.size:
            raise ValueError(
                f"shadow range [{addr}, {addr + length}) outside [0, {self.size})"
            )

    def _mark(self, addr: int, length: int) -> None:
        if length:
            self._blocks.update(
                range(addr // self.block, (addr + length - 1) // self.block + 1)
            )

    def set_range(self, addr: int, length: int, tag_id: int, origin_id: int) -> None:
        """Taint ``length`` bytes at ``addr`` with one tag/origin pair."""
        self._check(addr, length)
        if not 0 < tag_id <= MAX_TAG_ID:
            raise ValueError(f"tag id must be in [1, {MAX_TAG_ID}]")
        if not 0 <= origin_id <= MAX_ORIGIN_ID:
            raise ValueError(f"origin id must be in [0, {MAX_ORIGIN_ID}]")
        self._tags[addr : addr + length] = bytes([tag_id]) * length
        self._origins[addr : addr + length] = array("H", (origin_id,)) * length
        self._mark(addr, length)

    def clear_range(self, addr: int, length: int) -> None:
        """Untaint ``length`` bytes at ``addr`` (they were overwritten)."""
        self._check(addr, length)
        self._tags[addr : addr + length] = bytes(length)
        self._origins[addr : addr + length] = _H_ZERO * length

    def copy_range(self, src: int, dst: int, length: int) -> None:
        """Propagate taint along a memory-to-memory copy (COW, memcpy)."""
        self._check(src, length)
        self._check(dst, length)
        tags = self._tags[src : src + length]
        self._tags[dst : dst + length] = tags
        self._origins[dst : dst + length] = self._origins[src : src + length]
        if tags.count(0) != length:
            self._mark(dst, length)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def count_in(self, addr: int, length: int) -> int:
        """Number of tainted bytes in ``[addr, addr+length)``."""
        self._check(addr, length)
        return length - self._tags[addr : addr + length].count(0)

    def any_in(self, addr: int, length: int) -> bool:
        """True if any byte of the range carries taint."""
        self._check(addr, length)
        return self._tags[addr : addr + length].count(0) != length

    def covered(self, addr: int, length: int) -> bool:
        """True if *every* byte of the range carries taint."""
        return self.count_in(addr, length) == length

    def tag_at(self, addr: int) -> int:
        self._check(addr, 1)
        return self._tags[addr]

    def tags_in(self, addr: int, length: int) -> Set[int]:
        """The tag ids present in the range, i.e.
        ``set(tags[addr:addr+length].translate(None, b"\\0"))``.

        Built by deleting one tag value at a time (one C pass per tag
        present, not one Python step per byte), so the set gets its
        members in the same first-occurrence order as the formula.
        """
        self._check(addr, length)
        rest = self._tags[addr : addr + length].translate(None, b"\0")
        present: Set[int] = set()
        while rest:
            tag = rest[0]
            present.add(tag)
            rest = rest.translate(None, bytes((tag,)))
        return present

    def runs_in(self, addr: int, length: int) -> List[TaintRun]:
        """Maximal same-tag/same-origin tainted runs inside the range.

        Clean stretches are skipped with
        :func:`~repro.mem.bytesearch.first_nonzero` and run lengths are
        measured with compiled ``(?:unit)+`` repetitions — one C-speed
        match per run, never Python-per-byte.  The origin run matches
        2-byte units over the raw ``array('H')`` buffer; starting at an
        even byte offset and consuming exact units, it can never fall
        out of entry alignment.
        """
        self._check(addr, length)
        runs: List[TaintRun] = []
        tags = self._tags
        origins = self._origins
        origin_bytes = memoryview(origins).cast("B")
        try:
            pos = addr
            end = addr + length
            while pos < end:
                pos = first_nonzero(tags, pos, end)
                if pos >= end:
                    break
                tag = tags[pos]
                tag_end = _run_pattern(bytes([tag])).match(tags, pos, end).end()
                while pos < tag_end:
                    origin = origins[pos]
                    unit = bytes(origin_bytes[2 * pos : 2 * pos + 2])
                    match = _run_pattern(unit).match(
                        origin_bytes, 2 * pos, 2 * tag_end
                    )
                    run_end = match.end() // 2
                    runs.append(TaintRun(pos, run_end - pos, tag, origin))
                    pos = run_end
        finally:
            origin_bytes.release()
        return runs

    def iter_tainted_chunks(self) -> Iterator[Tuple[int, int]]:
        """Yield ``(start, length)``, in address order, for every
        ``block``-aligned window holding at least one tainted byte — the
        outer loop of whole-memory reports.  Only the indexed blocks are
        visited; each one found clean leaves the index."""
        tags = self._tags
        block = self.block
        for index in sorted(self._blocks):
            start = index * block
            length = min(block, self.size - start)
            if first_nonzero(tags, start, start + length) < start + length:
                yield start, length
            else:
                self._blocks.discard(index)

    def total_tainted(self) -> int:
        return self.size - self._tags.count(0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ShadowMap(size={self.size}, tainted={self.total_tainted()})"
