"""Overlapping byte-pattern search shared by every memory consumer.

Both the dump analyser (:mod:`repro.attacks.keysearch`) and simulated
RAM itself (:meth:`repro.mem.physmem.PhysicalMemory.find_all`) need
"every offset where ``needle`` occurs, overlapping matches included" —
the behaviour of the paper's kernel module, whose linear scan re-tests
at every byte offset.  This module is the single implementation; the
incremental scanner and the n_tty window search are further consumers
and search bounded windows through the same code path.

Two properties make a 256 MB configuration scan in seconds, matching
the paper's timing:

* **No copies.**  ``bytes``/``bytearray`` haystacks search in place
  through C-speed ``find``; *partial* ``memoryview`` windows — which
  have no ``find`` and used to be materialised with ``bytes(view)``,
  copying the whole window per probe — now search zero-copy through a
  compiled literal pattern (:mod:`re` operates directly on any
  contiguous buffer).  Only a non-contiguous view (which cannot be
  searched through the buffer protocol at all) still falls back to a
  copy.

* **Sparse scanning.**  Most of a machine's RAM is zero.
  :func:`nonzero_intervals` locates a dump's all-zero stretches with
  galloping C-speed compares (live RAM updates its cover per written
  frame instead), and :func:`find_all_sparse` probes each pattern only
  inside windows that can contain a match: one cover per scan.
  :func:`nonzero_spans` bounds the data of each written frame, for the
  incremental scanner and for live RAM's cover, and
  :func:`find_in_windows` searches any such window list in one bound
  ``find`` loop.
"""

from __future__ import annotations

import functools
import re
from typing import Iterable, List, Optional, Sequence, Tuple, Union

Buffer = Union[bytes, bytearray, memoryview]

#: Zero-run granularity for :func:`nonzero_intervals`: gaps shorter
#: than this stay inside a "nonzero" interval (conservative, cheap).
ZERO_GAP = 4096

#: Largest block the zero-run galloping compare grows to (bytes).
_MAX_GALLOP = 1 << 20

#: Bytes :func:`_zero_run_end` probes with one ``lstrip`` before it
#: starts to gallop: most runs between tainted bytes are short.
_PROBE = 256

#: Granule of :func:`nonzero_spans`' bounds (bytes).
SPAN_BLOCK = 64

#: All-zero reference blocks by size, for the galloping compares.
#: ``bytes.startswith``/``__eq__`` are memcmp; ``memoryview.__eq__``
#: unpacks per item and runs ~8x slower, so the compares below always
#: go through bytes.
_ZERO_CACHE: dict = {}


def _zero_block(n: int) -> bytes:
    blk = _ZERO_CACHE.get(n)
    if blk is None:
        if len(_ZERO_CACHE) > 64:
            _ZERO_CACHE.clear()
        blk = _ZERO_CACHE[n] = bytes(n)
    return blk


def _find_in_view(view: memoryview, needle: bytes, start: int, end: int) -> List[int]:
    """Zero-copy overlapping search inside a contiguous memoryview.

    ``memoryview`` has no ``find``; a compiled literal pattern searches
    any object exposing a contiguous byte buffer without copying it.
    """
    pattern = re.compile(re.escape(needle))
    hits: List[int] = []
    pos = start
    while True:
        match = pattern.search(view, pos, end)
        if match is None:
            return hits
        hits.append(match.start())
        pos = match.start() + 1


def _searchable(haystack: Buffer):
    """Return ``(buffer, via_regex)`` for ``haystack``.

    ``bytes``/``bytearray`` (and whole-buffer views over them) search
    through their own C-speed ``find``; any other *contiguous* view
    searches zero-copy through :func:`_find_in_view`.  Only a
    non-contiguous view — unsearchable through the buffer protocol —
    is materialised.
    """
    if isinstance(haystack, memoryview):
        base = haystack.obj
        if (
            haystack.contiguous
            and haystack.nbytes == len(base)
            and isinstance(base, (bytes, bytearray))
        ):
            return base, False
        if haystack.contiguous:
            return haystack, True
        return bytes(haystack), False
    return haystack, False


def find_all_occurrences(
    haystack: Buffer,
    needle: bytes,
    start: int = 0,
    end: int | None = None,
) -> List[int]:
    """Every (possibly overlapping) offset of ``needle`` in ``haystack``.

    ``start``/``end`` bound the search the way ``bytes.find`` does: a
    reported match lies entirely inside ``[start, end)``.
    """
    if not needle:
        raise ValueError("empty search pattern")
    data, via_regex = _searchable(haystack)
    if end is None:
        end = len(data)
    if via_regex:
        # re's endpos semantics match find's end bound: the match must
        # lie entirely inside [pos, endpos).
        return _find_in_view(data, needle, start, end)
    hits: List[int] = []
    pos = data.find(needle, start, end)
    while pos != -1:
        hits.append(pos)
        pos = data.find(needle, pos + 1, end)
    return hits


# ----------------------------------------------------------------------
# sparse (zero-skipping) scanning
# ----------------------------------------------------------------------
def _zero_run_end(data: Buffer, pos: int, end: int, is_view: bool) -> int:
    """First offset ``>= pos`` whose byte is nonzero (``end`` if none),
    assuming nothing: verified with C-speed compares.

    A short run costs one ``lstrip`` of a ``_PROBE``-byte slice.  A long
    one gallops: ``startswith`` of a cached zero block tests each block
    in place (memcmp, no slice copy), and once a block holds data it is
    halved down to at most ``ZERO_GAP`` bytes and finished with one
    ``lstrip``.  A ``memoryview`` has no ``startswith``, so the view
    path compares a ``bytes`` copy of each block instead.
    """

    def zero(at: int, n: int) -> bool:
        if is_view:
            return bytes(data[at : at + n]) == _zero_block(n)
        return data.startswith(_zero_block(n), at)

    def first_in(at: int, n: int) -> int:
        chunk = data[at : at + n]
        if is_view:
            chunk = bytes(chunk)
        return at + len(chunk) - len(chunk.lstrip(b"\0"))

    if pos >= end:
        return end
    found = first_in(pos, min(_PROBE, end - pos))
    if found < min(pos + _PROBE, end):
        return found
    pos = found
    step = ZERO_GAP
    while pos < end:
        n = min(step, end - pos)
        if zero(pos, n):
            pos += n
            step = min(step << 1, _MAX_GALLOP)
            continue
        while n > ZERO_GAP:
            half = n // 2
            if zero(pos, half):
                pos += half
                n -= half
            else:
                n = half
        return first_in(pos, n)
    return end


def first_nonzero(haystack: Buffer, start: int = 0, end: int | None = None) -> int:
    """First offset ``>= start`` holding a nonzero byte (``end`` if none).

    The zero-skipping primitive behind :func:`nonzero_intervals`, also
    used by the taint shadow map to skip clean shadow bytes.
    """
    data, via_regex = _searchable(haystack)
    if end is None:
        end = len(data)
    return _zero_run_end(data, start, end, via_regex)


def nonzero_intervals(
    haystack: Buffer, start: int = 0, end: int | None = None, gap: int = ZERO_GAP
) -> List[Tuple[int, int]]:
    """Maximal ``[lo, hi)`` intervals of ``haystack`` containing data.

    Every byte outside the returned intervals is verified zero; zero
    runs shorter than ``gap`` are conservatively kept *inside* an
    interval (detecting them would cost more than scanning them).  The
    complement is found with ``find`` of a ``gap``-byte zero block plus
    galloping block compares, a fraction of a full search pass.  Live
    RAM keeps its cover per frame instead (``PhysicalMemory``).
    """
    if gap <= 0:
        raise ValueError("gap must be positive")
    gap = min(gap, _MAX_GALLOP)
    data, via_regex = _searchable(haystack)
    if end is None:
        end = len(data)
    zero_probe = _zero_block(gap)
    zero_pattern = re.compile(re.escape(zero_probe)) if via_regex else None
    intervals: List[Tuple[int, int]] = []
    pos = start
    while pos < end:
        if zero_pattern is not None:
            match = zero_pattern.search(data, pos, end)
            z = match.start() if match else -1
        else:
            z = data.find(zero_probe, pos, end)
        if z == -1:
            intervals.append((pos, end))
            return intervals
        if z > pos:
            intervals.append((pos, z))
        pos = _zero_run_end(data, z + gap, end, via_regex)
    return intervals


def find_all_sparse(
    haystack: Buffer,
    needle: bytes,
    intervals: Sequence[Tuple[int, int]],
    end: int | None = None,
) -> List[int]:
    """:func:`find_all_occurrences`, probing only around ``intervals``.

    ``intervals`` must cover every nonzero byte of ``haystack`` (the
    output of :func:`nonzero_intervals`); all bytes outside them are
    taken to be zero.  The result is byte-identical to a full
    :func:`find_all_occurrences` pass: a match must place some nonzero
    needle byte on a nonzero haystack byte, so candidate windows are
    the intervals shifted by the needle's first nonzero index and
    widened by the needle length.  An all-zero needle (which only ever
    matches inside the zero gaps) falls back to the full pass.
    """
    if not needle:
        raise ValueError("empty search pattern")
    if end is None:
        end = len(haystack)
    j = next((k for k, b in enumerate(needle) if b), None)
    if j is None:
        return find_all_occurrences(haystack, needle, 0, end)
    length = len(needle)
    # needle[j] != 0 must land inside an interval: occurrence offsets
    # o satisfy o + j in [lo, hi)  =>  o in [lo - j, hi - j), and the
    # match must fit, so the find window is [lo - j, hi - j - 1 + L).
    windows: List[Tuple[int, int]] = []
    for lo, hi in intervals:
        w_lo = max(0, lo - j)
        w_hi = min(end, hi - j - 1 + length)
        if w_hi <= w_lo:
            continue
        if windows and w_lo <= windows[-1][1]:
            windows[-1] = (windows[-1][0], max(windows[-1][1], w_hi))
        else:
            windows.append((w_lo, w_hi))
    return find_in_windows(haystack, needle, windows)


def find_in_windows(
    haystack: Buffer, needle: bytes, windows: Sequence[Tuple[int, int]]
) -> List[int]:
    """The occurrences of ``needle`` lying entirely inside each of
    ``windows``, window by window: :func:`find_all_occurrences` per
    window, run as one bound ``find`` loop."""
    if not needle:
        raise ValueError("empty search pattern")
    data, via_regex = _searchable(haystack)
    if via_regex:
        return [
            hit for w_lo, w_hi in windows
            for hit in _find_in_view(data, needle, w_lo, w_hi)
        ]
    hits: List[int] = []
    append, find = hits.append, data.find
    for w_lo, w_hi in windows:
        pos = find(needle, w_lo, w_hi)
        while pos != -1:
            append(pos)
            pos = find(needle, pos + 1, w_hi)
    return hits


@functools.lru_cache(maxsize=8)
def _zero_blocks(block: int, count: int) -> Tuple[bytes, ...]:
    """All-zero blocks of ``0 .. count`` granules of ``block`` bytes."""
    return tuple(bytes(k * block) for k in range(count + 1))


def _zero_granules(
    probe, zeros: Tuple[bytes, ...], args: tuple, known: int, bad: int
) -> int:
    """Binary search for the most granules ``probe(zeros[k], *args)``
    accepts, given that it accepts ``known`` and rejects ``bad``."""
    while bad - known > 1:
        mid = (known + bad) >> 1
        if probe(zeros[mid], *args):
            known = mid
        else:
            bad = mid
    return known


def nonzero_spans(
    data: Union[bytes, bytearray],
    starts: Iterable[int],
    length: int,
    block: int = SPAN_BLOCK,
) -> List[Optional[Tuple[int, int]]]:
    """Per range ``[start, start + length)``, a ``[lo, hi)`` inside it
    holding every nonzero byte of it, to ``block`` bytes (None if the
    range is all zero).

    ``length`` must be a positive multiple of ``block``.  Every probe is
    one in-place ``startswith``/``endswith`` of a cached zero block
    (memcmp): two for an empty range, three for data in the first
    granule and none after it, and a binary search over granules on
    each side otherwise.  ``lstrip``/``rstrip`` cost a ``memchr`` per
    byte, about ten times more on a mostly-empty page, so a caller that
    needs byte-exact bounds strips only the granule at each end
    (:meth:`~repro.mem.physmem.PhysicalMemory.nonzero_intervals` does):
    ``lo``'s granule holds the range's first nonzero byte and the one
    ending at ``hi`` its last.
    """
    count = length // block
    zeros = _zero_blocks(block, count)
    empty, first = zeros[count], zeros[1]
    leads, trails = data.startswith, data.endswith
    spans: List[Optional[Tuple[int, int]]] = []
    for start in starts:
        end = start + length
        lo = start
        if leads(first, start):
            if leads(empty, start):
                spans.append(None)
                continue
            lo += block * _zero_granules(leads, zeros, (start,), 1, count)
        top = (end - lo) // block - 1  # granules after lo's, which has data
        if top <= 0 or not trails(first, start, end):
            spans.append((lo, end))
        elif trails(zeros[top], start, end):
            spans.append((lo, lo + block))
        else:
            trailing = _zero_granules(trails, zeros, (start, end), 1, top)
            spans.append((lo, end - block * trailing))
    return spans
