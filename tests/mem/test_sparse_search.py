"""Sparse (zero-skipping) byte search: identity, bounds, and no-copy.

The scan path's contract has two halves:

* ``find_all_sparse(h, n, nonzero_intervals(h))`` is byte-identical to
  ``find_all_occurrences(h, n)`` for every haystack/needle pair — the
  optimized scanner may *never* change a report;
* partial ``memoryview`` windows are searched zero-copy (the old
  ``_searchable`` materialised ``bytes(haystack)`` per probe, turning
  every incremental re-scan into a window-sized allocation).
"""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.bytesearch import (
    SPAN_BLOCK,
    ZERO_GAP,
    find_all_occurrences,
    find_all_sparse,
    find_in_windows,
    first_nonzero,
    nonzero_intervals,
    nonzero_spans,
)


def _reference_intervals_cover(buf, intervals):
    """Every byte outside the intervals must be zero."""
    pos = 0
    for lo, hi in intervals:
        assert pos <= lo < hi <= len(buf)
        assert not any(buf[pos:lo])
        pos = hi
    assert not any(buf[pos:])


@st.composite
def _haystacks(draw):
    """Mostly-zero buffers with a few data spans — RAM-shaped."""
    size = draw(st.integers(1, 20_000))
    buf = bytearray(size)
    for _ in range(draw(st.integers(0, 5))):
        offset = draw(st.integers(0, size - 1))
        span = draw(st.binary(min_size=1, max_size=300))
        buf[offset : offset + len(span)] = span[: size - offset]
    return bytes(buf)


class TestNonzeroIntervals:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(haystack=_haystacks(), gap=st.sampled_from([1, 7, 64, ZERO_GAP]))
    def test_complement_is_verified_zero(self, haystack, gap):
        _reference_intervals_cover(haystack, nonzero_intervals(haystack, gap=gap))

    def test_all_zero_buffer_has_no_intervals(self):
        assert nonzero_intervals(bytes(100_000)) == []

    def test_all_data_buffer_is_one_interval(self):
        assert nonzero_intervals(b"\x01" * 5000) == [(0, 5000)]

    def test_gap_must_be_positive(self):
        with pytest.raises(ValueError):
            nonzero_intervals(b"\x01", gap=0)

    def test_first_nonzero_gallops_to_the_byte(self):
        buf = bytearray(1_000_000)
        buf[777_777] = 1
        assert first_nonzero(buf) == 777_777
        assert first_nonzero(buf, 777_778) == len(buf)
        assert first_nonzero(bytes(64)) == 64


#: Offsets around the zero search's probe (256 bytes), its
#: ``ZERO_GAP`` finishing block, the ends of its first gallop blocks
#: (4, 8 and 16 KiB after the probe) and the halves of the 8 and
#: 16 KiB blocks, where an off-by-one would show.
_EDGES = [0, 255, 256, 4095, 4096, 4097, 4351, 4352, 8447, 8448,
          12543, 12544, 20736, 28927, 28928]

#: Longer than the gallop's largest block (1 MiB).
_LONG = (1 << 20) + 3 * 4096

#: Past the first block the gallop reaches after it has hit its 1 MiB
#: cap: blocks must stay 1 MiB from there on.
_PAST_CAP = 3 * (1 << 20) + 5000


@st.composite
def _first_nonzero_cases(draw):
    """``(buffer, start, end)``: mostly-zero data with nonzero bytes at
    the probe and block edges, sometimes past a > 1 MiB zero run."""
    size = draw(st.one_of(st.integers(1, 32_000), st.integers(_LONG, _LONG + 9000)))
    start = draw(st.integers(0, min(size, 6000)))
    end = draw(st.one_of(st.just(size), st.integers(start, size)))
    buf = bytearray(size)
    base = draw(st.sampled_from([0, start, max(start, size - 29_000)]))
    for edge in draw(st.lists(st.sampled_from(_EDGES), max_size=3)):
        if base + edge < size:
            buf[base + edge] = draw(st.integers(1, 255))
    for pos in draw(st.lists(st.integers(0, size - 1), max_size=2)):
        buf[pos] = draw(st.integers(1, 255))
    kind = draw(st.sampled_from(["bytes", "bytearray", "view"]))
    if kind == "bytes":
        return bytes(buf), start, end
    if kind == "bytearray":
        return buf, start, end
    # A partial view: nonzero padding on both sides must stay unseen.
    backing = b"\xff" * 7 + bytes(buf) + b"\xff" * 5
    return memoryview(backing)[7 : 7 + size], start, end


class TestFirstNonzero:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(case=_first_nonzero_cases())
    def test_equals_the_naive_scan(self, case):
        buf, start, end = case
        naive = next((i for i in range(start, end) if buf[i]), end)
        assert first_nonzero(buf, start, end) == naive

    @pytest.mark.parametrize("kind", ["bytes", "bytearray", "view"])
    @pytest.mark.parametrize("offset", _EDGES + [_LONG - 1, _PAST_CAP])
    def test_lone_byte_at_every_edge(self, kind, offset):
        buf = bytearray(max(_LONG, offset) + 4096)
        buf[offset] = 9
        haystack = {"bytes": bytes(buf), "bytearray": buf,
                    "view": memoryview(b"\xff" + buf)[1:]}[kind]
        assert first_nonzero(haystack) == offset
        assert first_nonzero(haystack, offset + 1) == len(buf)


class TestSparseEqualsFull:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(haystack=_haystacks(), data=st.data())
    def test_identity_on_random_buffers(self, haystack, data):
        if len(haystack) > 4 and data.draw(st.booleans()):
            # Bias toward needles that actually occur.
            offset = data.draw(st.integers(0, len(haystack) - 4))
            needle = haystack[offset : offset + 4]
        else:
            needle = data.draw(st.binary(min_size=1, max_size=8))
        if not needle:
            needle = b"\x00"
        intervals = nonzero_intervals(haystack)
        assert find_all_sparse(haystack, needle, intervals) == \
            find_all_occurrences(haystack, needle)

    def test_all_zero_needle_still_matches_the_gaps(self):
        buf = bytes(10_000)
        needle = bytes(16)
        intervals = nonzero_intervals(buf)
        assert intervals == []
        assert find_all_sparse(buf, needle, intervals) == \
            find_all_occurrences(buf, needle)

    def test_match_straddling_interval_edges(self):
        buf = bytearray(64 * 1024)
        buf[8192:8256] = b"\x5a" * 64
        needle = bytes(8) + b"\x5a" * 8  # zero prefix hangs off the interval
        intervals = nonzero_intervals(buf)
        assert find_all_sparse(buf, needle, intervals) == \
            find_all_occurrences(buf, needle)

    def test_overlapping_occurrences_are_kept(self):
        buf = bytes(4096) + b"\xab" * 40 + bytes(4096)
        hits = find_all_sparse(buf, b"\xab" * 8, nonzero_intervals(buf))
        assert hits == find_all_occurrences(buf, b"\xab" * 8)
        assert len(hits) == 33  # 40 - 8 + 1 overlapping offsets


class TestNonzeroSpans:
    """Each range's span holds all its data, to one granule."""

    @staticmethod
    def _check(buf, start, length, block, span):
        data = buf[start : start + length]
        if not any(data):
            assert span is None
            return
        lo, hi = span
        first = next(i for i, b in enumerate(data) if b)
        last = max(i for i, b in enumerate(data) if b)
        # lo is the start of the first granule with data, hi the end
        # of the last one.
        assert lo == start + first // block * block
        assert hi == start + (last // block + 1) * block

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        pages=st.lists(
            st.lists(st.tuples(st.integers(0, 4095), st.integers(1, 255)),
                     max_size=6),
            min_size=1, max_size=4,
        ),
        block=st.sampled_from([SPAN_BLOCK, 16, 4096]),
    )
    def test_spans_bound_every_nonzero_byte(self, pages, block):
        buf = bytearray(4096 * (len(pages) + 1))
        for index, writes in enumerate(pages):
            for offset, value in writes:
                buf[4096 * (index + 1) + offset] = value
        starts = [4096 * (index + 1) for index in range(len(pages))]
        spans = nonzero_spans(buf, starts, 4096, block)
        for start, span in zip(starts, spans):
            self._check(buf, start, 4096, block, span)

    @pytest.mark.parametrize("offset", [0, 63, 64, 127, 2047, 2048, 4032, 4095])
    def test_lone_byte_at_granule_edges(self, offset):
        buf = bytearray(3 * 4096)
        buf[4096 + offset] = 1
        (span,) = nonzero_spans(buf, [4096], 4096)
        self._check(buf, 4096, 4096, SPAN_BLOCK, span)

    def test_bytes_and_bytearray_agree(self):
        buf = bytearray(2 * 4096)
        buf[4096 + 100 : 4096 + 140] = b"\x11" * 40
        buf[4096 + 3000] = 2
        assert nonzero_spans(bytes(buf), [0, 4096], 4096) == \
            nonzero_spans(buf, [0, 4096], 4096) == [None, (4096 + 64, 4096 + 3008)]


class TestFindInWindows:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(haystack=_haystacks(), data=st.data())
    def test_equals_a_search_per_window(self, haystack, data):
        cuts = sorted(data.draw(st.lists(
            st.integers(0, len(haystack)), max_size=8, unique=True)))
        windows = list(zip(cuts[::2], cuts[1::2]))
        needle = data.draw(st.binary(min_size=1, max_size=4))
        expected = [hit for lo, hi in windows
                    for hit in find_all_occurrences(haystack, needle, lo, hi)]
        assert find_in_windows(haystack, needle, windows) == expected
        view = memoryview(haystack)[1:]  # searched through the regex path
        expected = [hit for lo, hi in windows
                    for hit in find_all_occurrences(view, needle, lo, hi)]
        assert find_in_windows(view, needle, windows) == expected

    def test_empty_needle_is_rejected(self):
        with pytest.raises(ValueError):
            find_in_windows(b"abc", b"", [(0, 3)])


class TestNoCopyRegression:
    def test_partial_view_search_allocates_no_window_copy(self):
        """Searching a partial memoryview must not materialise it.

        The regression: ``_searchable`` used to fall back to
        ``bytes(haystack)`` for any non-whole-buffer view, so probing a
        4 MB window allocated 4 MB.  The zero-copy path's peak
        allocation must stay orders of magnitude below the window.
        """
        backing = bytearray(4 * 1024 * 1024)
        backing[2_000_000 : 2_000_064] = b"\x77" * 64
        window = memoryview(backing)[1_000_000:3_000_000]

        find_all_occurrences(window, b"\x77" * 16)  # warm code paths
        tracemalloc.start()
        hits = find_all_occurrences(window, b"\x77" * 16)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()

        assert hits == [1_000_000 + i for i in range(49)]
        assert peak < 64 * 1024, f"window copy detected: peak {peak} bytes"

    def test_partial_view_results_match_bytes_results(self):
        backing = bytes(4096) + b"\x11\x22\x33" * 100 + bytes(4096)
        view = memoryview(backing)[4000:8500]
        assert find_all_occurrences(view, b"\x22\x33\x11") == \
            find_all_occurrences(bytes(view), b"\x22\x33\x11")

    def test_non_contiguous_view_still_correct(self):
        backing = bytes(range(256)) * 4
        strided = memoryview(backing)[::2]
        expected = find_all_occurrences(bytes(strided), b"\x04\x06")
        assert find_all_occurrences(strided, b"\x04\x06") == expected
