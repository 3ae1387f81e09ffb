"""The scanner classifies each frame once per scan; reports are unchanged.

``MemoryScanner.scan`` memoises a frame's region, allocation state and
owning PIDs for the length of one scan, because a key copy puts several
patterns on one frame and every rmap walk visits each chained VMA.  The
reference below classifies every match on its own, with a fresh
``rmap.owners_of`` call, exactly as the scanner did before the memo.
"""

import pytest

from repro.core.protection import ProtectionLevel
from repro.core.simulation import Simulation, SimulationConfig


def _reference(kernel, match):
    """``(frame, allocated, region, owners)`` for one match, from scratch."""
    frame = match.address // kernel.physmem.page_size
    page = kernel.page(frame)
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
    return frame, page.allocated, region, kernel.rmap.owners_of(page)


def _assert_matches_reference(sim, report):
    kernel = sim.kernel
    for match in report.matches:
        assert (match.frame, match.allocated, match.region, match.owners) == \
            _reference(kernel, match)
    # Each match owns its list: editing one cannot change another.
    assert len({id(match.owners) for match in report.matches}) == \
        len(report.matches)


def _machine(server, level):
    sim = Simulation(SimulationConfig(
        server=server, level=level, memory_mb=8, key_bits=256, seed=3,
    ))
    sim.start_server()
    sim.hold_connections(6)
    return sim


@pytest.mark.parametrize("server, level, shared", [
    ("openssh", ProtectionLevel.INTEGRATED, True),  # one aligned page, many PIDs
    ("apache", ProtectionLevel.NONE, False),        # a worker pool, many copies
], ids=["openssh-integrated", "apache-none"])
def test_full_and_incremental_scans_match_per_match_classification(
    server, level, shared
):
    sim = _machine(server, level)
    full = sim.scan()
    _assert_matches_reference(sim, full)

    # The memo is exercised: several matches on one frame (and, on the
    # aligned page, more than one owning process).
    frames = [match.frame for match in full.matches]
    assert len(set(frames)) < len(frames)
    assert any(len(match.owners) > 1 for match in full.matches) == shared

    # Traffic changes owners and copies; the next scan is incremental.
    sim.cycle_connections(3)
    sim.hold_connections(3)
    incremental = sim.scan(incremental=True)
    assert 0 < incremental.scanned_bytes < sim.kernel.physmem.size
    _assert_matches_reference(sim, incremental)
    assert incremental.matches == sim.scan().matches
