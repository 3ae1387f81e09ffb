"""Incremental rescans at the edges of the dirty cover.

``scan(incremental=True)`` searches only the nonzero granules of the
frames written since the last scan, plus the clean bytes a match may
straddle into: the left margin and the right tail.  Each case below
writes RAM directly so that exactly the intended frames are dirty, then
requires the incremental report to equal a fresh full scan's, and
``scanned_bytes`` to equal the dirty-interval byte count (dirty frames
expanded ``margin`` bytes to the left, merged where they touch).
"""

import random

import pytest

from repro.attacks.keysearch import KeyPatternSet
from repro.attacks.scanner import MemoryScanner
from repro.kernel.kernel import Kernel, KernelConfig

_RNG = random.Random(7)
PATTERN = bytes(_RNG.randrange(1, 256) for _ in range(64))
#: Patterns whose first nonzero byte is at index 3 and 1.
ZERO_LED = b"\0\0\0" + bytes(_RNG.randrange(1, 256) for _ in range(40))
ONE_ZERO_LED = b"\0" + PATTERN[:30]
#: One nonzero byte, then zeros: its data is a single byte.
SPIKE = b"\x07" + bytes(23)
#: Matches every 24-byte zero run: the all-zero prefix has no
#: nonzero byte to anchor a window on.
ALL_ZERO = bytes(24)


def _signature(report):
    return [
        (m.pattern, m.address, m.matched_bytes, m.full, m.allocated,
         m.region, tuple(m.owners))
        for m in report.matches
    ]


def _interval_bytes(dirty, page, margin):
    """The dirty-interval byte count: each dirty frame expanded
    ``margin`` bytes to the left, overlapping ranges merged."""
    intervals = []
    for frame in dirty:
        start = max(0, frame * page - margin)
        stop = (frame + 1) * page
        if intervals and start <= intervals[-1][1]:
            intervals[-1][1] = max(intervals[-1][1], stop)
        else:
            intervals.append([start, stop])
    return sum(stop - start for start, stop in intervals)


class Machine:
    """A 1 MB kernel and a primed scanner over ``patterns``."""

    def __init__(self, patterns, page_size=4096, min_match=20, fill=None):
        self.kernel = Kernel(KernelConfig(memory_mb=1, page_size=page_size))
        self.physmem = self.kernel.physmem
        if fill is not None:
            self.physmem.fill(0, self.physmem.size, fill)
        self.patterns = KeyPatternSet(patterns, canonical=False)
        self.min_match = min_match
        self.scanner = MemoryScanner(self.kernel, self.patterns, min_match)
        self.scanner.scan()  # primes the incremental cache

    @property
    def page(self):
        return self.physmem.page_size

    def rescan(self, *writes):
        """Apply ``(addr, bytes)`` writes, rescan, check, return the report."""
        before = self.physmem.frame_generations()
        for addr, data in writes:
            self.physmem.write(addr, data)
        after = self.physmem.frame_generations()
        dirty = [f for f, (a, b) in enumerate(zip(after, before)) if a != b]
        report = self.scanner.scan(incremental=True)
        scratch = MemoryScanner(self.kernel, self.patterns, self.min_match)
        fresh = scratch.scan()
        assert _signature(report) == _signature(fresh)
        # The cached prefix occurrences too: a duplicate offset would
        # hide inside the previous match's extent in the report.
        assert self.scanner._occurrences == scratch._occurrences
        margin = max(
            len(pattern[: self.min_match]) for _, pattern in self.patterns.items()
        ) - 1
        assert report.scanned_bytes == _interval_bytes(dirty, self.page, margin)
        return report


def _at(report, address):
    return [m for m in report.matches if m.address == address]


def test_match_straddling_from_clean_into_dirty_frame():
    machine = Machine({"k": PATTERN})
    base = 100 * machine.page
    machine.rescan((base - 7, PATTERN[:7]))  # clean frame 99 from here on
    report = machine.rescan((base, PATTERN[7:]))
    assert [m.full for m in _at(report, base - 7)] == [True]
    # Breaking the copy inside the dirty frame drops it again.
    report = machine.rescan((base + 1, b"\0"))
    assert _at(report, base - 7) == []


def test_match_straddling_from_dirty_into_clean_frame():
    machine = Machine({"k": PATTERN})
    base = 100 * machine.page
    machine.rescan((base, PATTERN[7:]))  # clean frame 100 from here on
    report = machine.rescan((base - 7, PATTERN[:7]))
    assert [m.full for m in _at(report, base - 7)] == [True]
    report = machine.rescan((base - 7, b"\0"))
    assert _at(report, base - 7) == []


def test_adjacent_dirty_frames():
    machine = Machine({"k": PATTERN})
    page = machine.page
    base = 120 * page
    report = machine.rescan(
        (base - 30, PATTERN),            # clean 119 into dirty 120
        (base + page - 10, PATTERN),     # 120 into 121
        (base + 2 * page + 1500, PATTERN),
        (base + 3 * page - 5, PATTERN[:25]),  # 122 into clean 123: partial
    )
    assert [m.matched_bytes for m in _at(report, base + 3 * page - 5)] == [25]
    # Clearing the middle frame removes only the copy reaching into it.
    before = len(report.matches)
    report = machine.rescan((base + page, bytes(page)))
    assert len(report.matches) == before - 1
    assert _at(report, base + page - 10) == []


def test_first_and_last_frame_of_ram():
    machine = Machine({"k": PATTERN})
    size = machine.physmem.size
    report = machine.rescan(
        (0, PATTERN),
        (size - len(PATTERN), PATTERN),
    )
    assert _at(report, 0) and _at(report, size - len(PATTERN))
    # A copy cut short by the end of RAM is a partial match.
    report = machine.rescan(
        (size - len(PATTERN), bytes(len(PATTERN))),
        (size - 25, PATTERN[:25]),
    )
    assert [m.matched_bytes for m in _at(report, size - 25)] == [25]
    report = machine.rescan((0, b"\xff"))
    assert _at(report, 0) == []


def test_zero_leading_and_all_zero_patterns():
    """RAM is filled with 0xa5, so zero runs exist only where written."""
    machine = Machine(
        {"z": ZERO_LED, "y": ONE_ZERO_LED, "0": ALL_ZERO}, fill=0xA5
    )
    page = machine.page
    base = 100 * page
    # ZERO_LED's leading zeros in clean frame 99, its data in dirty 100.
    machine.rescan((base - 2, b"\0\0"))
    report = machine.rescan((base, ZERO_LED[2:]))
    assert _at(report, base - 2)[0].pattern == "z"
    # Its leading zeros in dirty, all-zero frame 119, its first nonzero
    # byte in clean frame 120: found through the right tail only, with
    # a second dirty interval after it.
    machine.rescan((119 * page, bytes(page)), (120 * page, ZERO_LED[2:]))
    report = machine.rescan((120 * page - 2, b"\0\0"), (140 * page, b"\xa5"))
    assert _at(report, 120 * page - 2)[0].pattern == "z"
    # The same with one leading zero: its tail window is one prefix long.
    machine.rescan((124 * page, bytes(page)), (125 * page, ONE_ZERO_LED[1:]))
    report = machine.rescan((125 * page - 1, b"\0"))
    assert _at(report, 125 * page - 1)[0].pattern == "y"
    # A zero run straddling from clean frame 109 into dirty frame 110.
    machine.rescan((110 * page - 10, bytes(10)))
    report = machine.rescan((110 * page, bytes(30)))
    assert [m.pattern for m in _at(report, 110 * page - 10)] == ["0"]
    # A cleared frame is one long zero run; refilling it drops it.
    def zero_runs(report):
        return [m.address for m in report.matches if m.pattern == "0"]

    before = zero_runs(report)
    assert 110 * page - 10 in before
    report = machine.rescan((130 * page, bytes(page)))
    assert len(zero_runs(report)) > len(before) + 100
    report = machine.rescan((130 * page, b"\xa5" * page))
    assert zero_runs(report) == before


def test_data_at_granule_edges():
    """Frames whose only data ends or starts on a 64-byte granule edge:
    the frame's span must keep that byte."""
    machine = Machine({"s": SPIKE, "k": PATTERN})
    page = machine.page
    report = machine.rescan(
        (100 * page + 63, SPIKE),                  # end of granule 0
        (101 * page + 10, b"\x01"),
        (101 * page + 5 * 64 + 63, SPIKE),         # end of granule 5
        (102 * page + 7 * 64, SPIKE),              # start of granule 7
        (103 * page + 20, b"\x01"),
        (103 * page + page - 24, SPIKE),           # ends the frame
        (104 * page + page - 1, PATTERN[:1]),      # last byte, into 105
    )
    for address in (100 * page + 63, 101 * page + 383, 102 * page + 448,
                    103 * page + page - 24):
        assert [m.pattern for m in _at(report, address)] == ["s"]


def test_margin_wider_than_a_page():
    """A 300-byte prefix on 256-byte frames: one match spans three
    frames, and dirty runs a clean frame apart share an interval."""
    long_pattern = (PATTERN * 6)[:320]
    machine = Machine({"k": long_pattern}, page_size=256, min_match=300)
    page = machine.page
    base = 400 * page
    machine.rescan((base - 300, long_pattern[:200]))  # clean frames 398-399
    report = machine.rescan(
        (base - 100, long_pattern[200:]),
        (base + 2 * page + 10, long_pattern),  # one clean frame apart
    )
    assert _at(report, base - 300) and _at(report, base + 2 * page + 10)
    # A copy in the two clean frames between two dirty runs, whose
    # windows overlap: it must not be found a second time.
    gap_copy = base + 10 * page + 100
    machine.rescan((gap_copy, long_pattern))
    machine.rescan((base + 10 * page - 1, b"\1"), (base + 12 * page, b"\1"))
    # Cut past the prefix, in the next frame: a partial match.
    report = machine.rescan((base + 2 * page + 10 + 306, b"\0"))
    assert _at(report, base + 2 * page + 10)[0].matched_bytes == 306


@pytest.mark.parametrize("page_size", [4096, 256])
def test_random_boundary_writes(page_size):
    """Pattern pieces written around frame boundaries, one rescan each."""
    rng = random.Random(page_size)
    machine = Machine({"k": PATTERN, "z": ZERO_LED}, page_size=page_size)
    frames = machine.physmem.num_frames
    for _ in range(40):
        writes = []
        for _ in range(rng.randrange(1, 4)):
            pattern = rng.choice([PATTERN, ZERO_LED])
            cut = rng.randrange(1, len(pattern))
            boundary = rng.randrange(1, frames) * page_size
            piece = rng.choice([pattern[:cut], pattern[cut:], pattern,
                                bytes(cut)])
            addr = min(boundary - cut, machine.physmem.size - len(piece))
            writes.append((max(0, addr), piece))
        machine.rescan(*writes)
