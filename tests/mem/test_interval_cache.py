"""The cached data-bearing intervals of RAM and the bounded swap search.

``PhysicalMemory.nonzero_intervals`` keeps one nonzero span per frame
and re-reads a frame only when its generation counter moved, and
``SwapDevice`` searches only up to one past the highest slot it ever
wrote.  Both are shortcuts over state that a full pass would read from
scratch, so both are checked here against that full pass:

* after every mutator in a random sequence, the cached intervals cover
  every nonzero byte of RAM and ``find_all_sparse`` over them equals
  ``find_all`` for random needles (data slices, zero-led needles and
  the all-zero needle);
* after random swap-outs, swap-ins, scrubs and torn writes,
  ``count_pattern`` and ``find_pattern`` equal the same searches over a
  full ``raw_dump()``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SwapError
from repro.faults import FaultInjector, FaultPlan
from repro.mem.physmem import PAGE_SIZE, PhysicalMemory
from repro.mem.swap import SwapDevice

PAGE = 64
FRAMES = 12
SIZE = PAGE * FRAMES

#: Few distinct byte values, so data slices recur and needles match.
_DATA = st.binary(min_size=0, max_size=3 * PAGE).map(
    lambda raw: bytes(b % 3 for b in raw)
)

_ADDR = st.integers(0, SIZE - 1)
_FRAME = st.integers(0, FRAMES - 1)

_OPS = st.one_of(
    st.tuples(st.just("write"), _ADDR, _DATA),
    st.tuples(st.just("write_zeros"), _ADDR, st.integers(1, 3 * PAGE)),
    st.tuples(st.just("fill"), _ADDR, st.integers(0, 2 * PAGE),
              st.sampled_from([0, 0, 1, 0xAB])),
    st.tuples(st.just("write_frame"), _FRAME, _DATA.map(lambda d: d[:PAGE])),
    st.tuples(st.just("clear_frame"), _FRAME),
    st.tuples(st.just("copy_frame"), _FRAME, _FRAME),
)


def _apply(mem, op):
    kind, *args = op
    if kind == "write":
        addr, data = args
        mem.write(addr, data[: SIZE - addr])
    elif kind == "write_zeros":
        addr, length = args
        mem.write(addr, bytes(min(length, SIZE - addr)))
    elif kind == "fill":
        addr, length, value = args
        mem.fill(addr, min(length, SIZE - addr), value)
    elif kind == "write_frame":
        mem.write_frame(*args)
    elif kind == "clear_frame":
        mem.clear_frame(*args)
    else:
        mem.copy_frame(*args)


def _assert_covers(ram, intervals):
    """Sorted, disjoint, in range, and every byte outside is zero."""
    pos = 0
    for lo, hi in intervals:
        assert pos <= lo < hi <= len(ram)
        assert not any(ram[pos:lo])
        pos = hi
    assert not any(ram[pos:])


def _needles(ram, draw):
    needles = [b"\x00" * 5, b"\x00\x00\x01", b"\x01\x02", b"\xab" * 3]
    for _ in range(3):
        start = draw(st.integers(0, len(ram) - 1))
        length = draw(st.integers(1, 2 * PAGE))
        needle = ram[start : start + length]
        if needle:
            needles.append(needle)
    return needles


class TestRamIntervalCache:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(ops=st.lists(_OPS, min_size=1, max_size=25), data=st.data())
    def test_cover_and_search_after_every_mutator(self, ops, data):
        mem = PhysicalMemory(FRAMES, page_size=PAGE)
        for op in ops:
            _apply(mem, op)
            ram = mem.snapshot()
            intervals = mem.nonzero_intervals()
            _assert_covers(ram, intervals)
            for needle in _needles(ram, data.draw):
                assert mem.find_all_sparse(needle, intervals) == mem.find_all(needle)

    # Exact spans on full-size pages, where frames a few pages apart
    # stay separate intervals (nearer spans merge across short gaps).
    def test_untouched_ram_has_no_intervals(self):
        assert PhysicalMemory(8).nonzero_intervals() == []

    def test_zero_write_over_data_drops_the_frame(self):
        mem = PhysicalMemory(8)
        mem.write(3 * PAGE_SIZE + 10, b"\x07" * 5)
        assert mem.nonzero_intervals() == [(3 * PAGE_SIZE + 10, 3 * PAGE_SIZE + 15)]
        mem.write(3 * PAGE_SIZE + 10, bytes(5))
        assert mem.nonzero_intervals() == []

    def test_cross_frame_write_spans_both_frames(self):
        mem = PhysicalMemory(8)
        mem.write(2 * PAGE_SIZE - 3, b"\x01" * 6)
        assert mem.nonzero_intervals() == [(2 * PAGE_SIZE - 3, 2 * PAGE_SIZE + 3)]

    def test_copy_frame_carries_the_span(self):
        mem = PhysicalMemory(8)
        mem.write(PAGE_SIZE + 4, b"\x09\x00\x09")
        mem.copy_frame(1, 5)
        assert mem.nonzero_intervals() == [
            (PAGE_SIZE + 4, PAGE_SIZE + 7), (5 * PAGE_SIZE + 4, 5 * PAGE_SIZE + 7)
        ]

    def test_result_is_a_fresh_list(self):
        mem = PhysicalMemory(8)
        mem.write(0, b"\x01")
        mem.nonzero_intervals().clear()
        assert mem.nonzero_intervals() == [(0, 1)]


# ----------------------------------------------------------------------
# swap: searches bounded by the high-water mark
# ----------------------------------------------------------------------
SLOTS = 8

_SWAP_OPS = st.one_of(
    st.tuples(st.just("out"), _DATA.map(lambda d: (d + bytes(PAGE))[:PAGE])),
    st.tuples(st.just("in"), st.integers(0, SLOTS - 1), st.booleans()),
    st.tuples(st.just("scrub"), st.integers(0, SLOTS - 1)),
)


def _reference_count(image, pattern):
    count, pos = 0, image.find(pattern)
    while pos != -1:
        count += 1
        pos = image.find(pattern, pos + len(pattern))
    return count


def _reference_find(image, pattern):
    hits, pos = [], image.find(pattern)
    while pos != -1:
        hits.append(pos)
        pos = image.find(pattern, pos + 1)
    return hits


class TestSwapSearch:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(
        ops=st.lists(_SWAP_OPS, min_size=1, max_size=20),
        torn=st.lists(st.integers(0, 10), max_size=3),
        data=st.data(),
    )
    def test_bounded_search_equals_the_full_dump(self, ops, torn, data):
        swap = SwapDevice(SLOTS, page_size=PAGE)
        swap.faults = FaultInjector(FaultPlan({"swap.torn": sorted(set(torn))}))
        for kind, *args in ops:
            try:
                if kind == "out":
                    swap.swap_out(args[0])
                elif kind == "in" and args[0] in swap.used_slots():
                    swap.swap_in(*args)
                elif kind == "scrub":
                    swap.scrub_slot(args[0])
            except SwapError:
                pass  # full device or an injected torn write
            swap.check_consistency()
            assert swap.free_slots() == SLOTS - len(swap.used_slots())
            image = swap.raw_dump()
            for needle in _needles(image, data.draw):
                assert swap.count_pattern(needle) == _reference_count(image, needle)
                assert swap.find_pattern(needle) == _reference_find(image, needle)

    def test_match_straddling_the_high_water_mark(self):
        swap = SwapDevice(SLOTS, page_size=PAGE)
        swap.swap_out(bytes(PAGE - 2) + b"\x05\x06")
        needle = b"\x05\x06\x00\x00\x00"
        assert swap.find_pattern(needle) == [PAGE - 2]
        assert swap.count_pattern(needle) == 1

    def test_never_written_device_has_no_hits(self):
        swap = SwapDevice(SLOTS, page_size=PAGE)
        assert swap.count_pattern(b"\x01") == 0
        assert swap.find_pattern(b"\x01") == []
        assert swap.count_pattern(b"\x00" * PAGE) == SLOTS

    def test_empty_pattern_rejected(self):
        swap = SwapDevice(SLOTS, page_size=PAGE)
        with pytest.raises(ValueError):
            swap.count_pattern(b"")
