"""Unit and property tests for the buddy allocator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AllocatorStateError, OutOfMemoryError
from repro.mem.buddy import HOT_LIST_CAPACITY, BuddyAllocator
from repro.mem.page import PageFlag
from repro.mem.physmem import PhysicalMemory


def make_allocator(frames=64, reserved=0):
    mem = PhysicalMemory(num_frames=frames)
    return mem, BuddyAllocator(mem, reserved_frames=reserved)


class TestBasicAllocation:
    def test_alloc_free_roundtrip(self):
        _, buddy = make_allocator()
        frame = buddy.alloc_pages(0)
        assert buddy.is_allocated(frame)
        buddy.free_pages(frame)
        assert not buddy.is_allocated(frame)
        buddy.check_invariants()

    def test_free_frames_accounting(self):
        _, buddy = make_allocator(frames=64)
        assert buddy.free_frames() == 64
        buddy.alloc_pages(0)
        assert buddy.free_frames() == 63
        head = buddy.alloc_pages(3)
        assert buddy.free_frames() == 63 - 8
        buddy.free_pages(head)
        assert buddy.free_frames() == 63

    def test_multi_order_alignment(self):
        _, buddy = make_allocator()
        for order in range(4):
            head = buddy.alloc_pages(order)
            assert head % (1 << order) == 0
            buddy.free_pages(head)

    def test_distinct_blocks(self):
        _, buddy = make_allocator()
        seen = set()
        for _ in range(32):
            frame = buddy.alloc_pages(0)
            assert frame not in seen
            seen.add(frame)

    def test_flags_applied(self):
        _, buddy = make_allocator()
        frame = buddy.alloc_pages(0, PageFlag.PAGECACHE)
        assert buddy.pages[frame].in_pagecache

    def test_oom(self):
        _, buddy = make_allocator(frames=4)
        for _ in range(4):
            buddy.alloc_pages(0)
        with pytest.raises(OutOfMemoryError):
            buddy.alloc_pages(0)

    def test_oom_large_order(self):
        _, buddy = make_allocator(frames=8)
        buddy.alloc_pages(0)
        with pytest.raises(OutOfMemoryError):
            buddy.alloc_pages(3)

    def test_invalid_order(self):
        _, buddy = make_allocator()
        with pytest.raises(AllocatorStateError):
            buddy.alloc_pages(-1)
        with pytest.raises(AllocatorStateError):
            buddy.alloc_pages(buddy.max_order + 1)


class TestFreeErrors:
    def test_double_free(self):
        _, buddy = make_allocator()
        frame = buddy.alloc_pages(0)
        buddy.free_pages(frame)
        with pytest.raises(AllocatorStateError):
            buddy.free_pages(frame)

    def test_free_unallocated(self):
        _, buddy = make_allocator()
        with pytest.raises(AllocatorStateError):
            buddy.free_pages(3)

    def test_free_wrong_order(self):
        _, buddy = make_allocator()
        head = buddy.alloc_pages(2)
        with pytest.raises(AllocatorStateError):
            buddy.free_pages(head, order=1)


class TestStaleContent:
    """The property the whole paper rests on."""

    def test_freed_frame_keeps_content(self):
        mem, buddy = make_allocator()
        frame = buddy.alloc_pages(0)
        mem.write_frame(frame, b"PRIVATE KEY MATERIAL")
        buddy.free_pages(frame)
        assert mem.read_frame(frame).startswith(b"PRIVATE KEY MATERIAL")

    def test_realloc_sees_stale_content(self):
        mem, buddy = make_allocator(frames=8)
        frame = buddy.alloc_pages(0)
        mem.write_frame(frame, b"SECRET")
        buddy.free_pages(frame)
        # Drain until the same frame comes back.
        got = set()
        while frame not in got and len(got) < 8:
            got.add(buddy.alloc_pages(0))
        assert mem.read_frame(frame).startswith(b"SECRET")

    def test_zero_on_free_clears(self):
        mem, buddy = make_allocator()
        buddy.clear_on_free = True
        frame = buddy.alloc_pages(0)
        mem.write_frame(frame, b"SECRET")
        buddy.free_pages(frame)
        assert mem.frame_is_zero(frame)

    def test_zero_on_free_clears_multiorder(self):
        mem, buddy = make_allocator()
        buddy.clear_on_free = True
        head = buddy.alloc_pages(2)
        for offset in range(4):
            mem.write_frame(head + offset, b"SECRET")
        buddy.free_pages(head)
        for offset in range(4):
            assert mem.frame_is_zero(head + offset)

    def test_clear_counter_and_hook(self):
        cleared = []
        mem = PhysicalMemory(num_frames=16)
        buddy = BuddyAllocator(mem, on_page_clear=cleared.append)
        buddy.clear_on_free = True
        frame = buddy.alloc_pages(0)
        buddy.free_pages(frame)
        assert buddy.cleared_frames == 1
        assert cleared == [1]


class TestHotList:
    def test_hot_reuse_is_lifo(self):
        _, buddy = make_allocator()
        a = buddy.alloc_pages(0)
        b = buddy.alloc_pages(0)
        buddy.free_pages(a)
        buddy.free_pages(b)
        assert buddy.alloc_pages(0) == b
        assert buddy.alloc_pages(0) == a

    def test_hot_overflow_drains(self):
        _, buddy = make_allocator(frames=128)
        frames = [buddy.alloc_pages(0) for _ in range(HOT_LIST_CAPACITY + 10)]
        for frame in frames:
            buddy.free_pages(frame)
        assert len(buddy._hot) == HOT_LIST_CAPACITY
        buddy.check_invariants()

    def test_cold_frames_reused_last(self):
        """Front-inserted (recently freed, beyond hot) frames must be
        reused after older free blocks — the plenty-of-memory regime."""
        _, buddy = make_allocator(frames=128)
        frames = [buddy.alloc_pages(0) for _ in range(HOT_LIST_CAPACITY + 4)]
        for frame in frames:
            buddy.free_pages(frame)
        # The first 4 freed frames overflowed to the buddy lists; a new
        # allocation beyond the hot list should NOT return them first.
        for _ in range(HOT_LIST_CAPACITY):
            buddy.alloc_pages(0)
        nxt = buddy.alloc_pages(0)
        assert nxt not in frames[:4]


class TestReserved:
    def test_reserved_frames_never_allocated(self):
        _, buddy = make_allocator(frames=64, reserved=8)
        assert buddy.free_frames() == 56
        got = {buddy.alloc_pages(0) for _ in range(56)}
        assert all(frame >= 8 for frame in got)

    def test_reserved_is_allocated(self):
        _, buddy = make_allocator(frames=64, reserved=8)
        assert buddy.is_allocated(0)
        assert buddy.pages[0].reserved


class TestRefcountInterface:
    def test_get_put_page(self):
        _, buddy = make_allocator()
        frame = buddy.alloc_pages(0)
        buddy.get_page(frame)
        assert buddy.pages[frame].count == 2
        buddy.put_page(frame)
        assert buddy.is_allocated(frame)
        buddy.put_page(frame)
        assert not buddy.is_allocated(frame)
        buddy.check_invariants()

    def test_get_page_on_free_raises(self):
        _, buddy = make_allocator()
        with pytest.raises(AllocatorStateError):
            buddy.get_page(5)


class TestCoalescing:
    def test_full_free_restores_max_blocks(self):
        _, buddy = make_allocator(frames=64)
        frames = [buddy.alloc_pages(0) for _ in range(64)]
        for frame in frames:
            buddy.free_pages(frame)
        buddy._drain_hot()
        buddy.check_invariants()
        assert buddy.free_frames() == 64
        # Everything should have coalesced back to order-6 blocks.
        total_order0 = len(buddy._free_lists[0])
        assert total_order0 == 0

    def test_alloc_all_memory_every_order(self):
        _, buddy = make_allocator(frames=64)
        heads = []
        while True:
            try:
                heads.append(buddy.alloc_pages(1))
            except OutOfMemoryError:
                break
        assert len(heads) == 32
        for head in heads:
            buddy.free_pages(head)
        buddy.check_invariants()


# ----------------------------------------------------------------------
# property-based tests
# ----------------------------------------------------------------------
@st.composite
def alloc_free_script(draw):
    """A random interleaving of allocs (order 0-3) and frees."""
    return draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("alloc"), st.integers(0, 3)),
                st.tuples(st.just("free"), st.integers(0, 200)),
            ),
            min_size=1,
            max_size=120,
        )
    )


class TestProperties:
    @settings(max_examples=40, deadline=None)
    @given(script=alloc_free_script())
    def test_invariants_under_random_script(self, script):
        _, buddy = make_allocator(frames=256)
        live = []
        for action, value in script:
            if action == "alloc":
                try:
                    head = buddy.alloc_pages(value)
                except OutOfMemoryError:
                    continue
                live.append((head, value))
            elif live:
                head, order = live.pop(value % len(live))
                buddy.free_pages(head)
        buddy.check_invariants()
        # No two live blocks overlap.
        owned = set()
        for head, order in live:
            for frame in range(head, head + (1 << order)):
                assert frame not in owned
                owned.add(frame)
                assert buddy.is_allocated(frame)

    @settings(max_examples=25, deadline=None)
    @given(script=alloc_free_script())
    def test_zero_on_free_means_no_stale_bytes(self, script):
        mem, buddy = make_allocator(frames=256)
        buddy.clear_on_free = True
        live = []
        for action, value in script:
            if action == "alloc":
                try:
                    head = buddy.alloc_pages(value)
                except OutOfMemoryError:
                    continue
                for frame in range(head, head + (1 << value)):
                    mem.write_frame(frame, b"SECRETSECRET")
                live.append((head, value))
            elif live:
                head, order = live.pop(value % len(live))
                buddy.free_pages(head)
        # Every non-live frame must be zero.
        owned = set()
        for head, order in live:
            owned.update(range(head, head + (1 << order)))
        for frame in range(256):
            if frame not in owned:
                assert mem.frame_is_zero(frame), f"stale bytes in frame {frame}"

    @settings(max_examples=25, deadline=None)
    @given(count=st.integers(1, 64))
    def test_conservation_of_frames(self, count):
        _, buddy = make_allocator(frames=64)
        heads = []
        for _ in range(count):
            heads.append(buddy.alloc_pages(0))
        assert buddy.free_frames() == 64 - count
        for head in heads:
            buddy.free_pages(head)
        assert buddy.free_frames() == 64


class TestFreeHook:
    """The KeySan on_free hook: fired on every free path, with the
    allocator in a consistent (invariant-checkable) state."""

    def test_hook_reports_head_order_cleared(self):
        _, buddy = make_allocator(frames=64)
        events = []
        buddy.on_free = lambda head, order, cleared: (
            events.append((head, order, cleared)),
            buddy.check_invariants(),
        )
        head0 = buddy.alloc_pages(0)
        head2 = buddy.alloc_pages(2)
        buddy.free_pages(head0)
        buddy.free_pages(head2)
        assert events == [(head0, 0, False), (head2, 2, False)]

    def test_hook_sees_clear_on_free(self):
        _, buddy = make_allocator(frames=64)
        buddy.clear_on_free = True
        events = []
        buddy.on_free = lambda head, order, cleared: events.append(cleared)
        buddy.free_pages(buddy.alloc_pages(0))
        assert events == [True]

    def test_hook_fires_on_put_page_path(self):
        _, buddy = make_allocator(frames=64)
        events = []
        buddy.on_free = lambda head, order, cleared: (
            events.append(head),
            buddy.check_invariants(),
        )
        frame = buddy.alloc_pages(0)
        buddy.get_page(frame)
        buddy.put_page(frame)
        assert events == []  # still referenced
        buddy.put_page(frame)
        assert events == [frame]

    @settings(max_examples=20, deadline=None)
    @given(schedule=st.lists(st.integers(0, 3), min_size=1, max_size=40))
    def test_invariants_hold_at_every_hook_firing(self, schedule):
        """check_invariants() from inside the hook — the sanitizer's
        throttled call site — must never trip, whatever the schedule."""
        _, buddy = make_allocator(frames=128)
        buddy.on_free = lambda head, order, cleared: buddy.check_invariants()
        live = []
        for step in schedule:
            if step < 3:
                try:
                    live.append((buddy.alloc_pages(step), step))
                except OutOfMemoryError:
                    continue
            elif live:
                head, _order = live.pop(len(live) // 2)
                buddy.free_pages(head)
        for head, _order in live:
            buddy.free_pages(head)
        buddy.check_invariants()


class TestInvariantMessages:
    """``check_invariants`` runs its five checks in bulk; each kind of
    corruption still raises the frame-by-frame walk's exact message."""

    @staticmethod
    def split_allocator():
        # One order-0 allocation splits the order-6 block: frame 0 is
        # allocated, heads 1 (order 0), 2, 4, 8, 16, 32 (orders 1-5) free.
        _, buddy = make_allocator(frames=64)
        assert buddy.alloc_pages(0) == 0
        buddy.check_invariants()
        return buddy

    def assert_raises(self, buddy, message):
        with pytest.raises(AllocatorStateError) as excinfo:
            buddy.check_invariants()
        assert str(excinfo.value) == message

    def test_misaligned_head(self):
        # Over reserved frames the block overlaps no other block, so only
        # the alignment check can object to it.
        _, buddy = make_allocator(frames=64, reserved=8)
        buddy._free_lists[1].append(3)
        self.assert_raises(buddy, "free block 3 misaligned for order 1")

    def test_frame_on_two_free_lists(self):
        buddy = self.split_allocator()
        buddy._free_lists[0].append(2)
        self.assert_raises(buddy, "frame 2 on two free lists")

    def test_free_frame_with_nonzero_refcount(self):
        buddy = self.split_allocator()
        buddy.pages[5].count = 1
        self.assert_raises(buddy, "free frame 5 has nonzero refcount")

    def test_hot_frame_also_on_buddy_list(self):
        buddy = self.split_allocator()
        buddy._hot.append(9)
        self.assert_raises(buddy, "hot frame 9 also on buddy list")

    def test_allocated_frame_marked_free(self):
        buddy = self.split_allocator()
        buddy._alloc_orders[20] = 2
        self.assert_raises(buddy, "allocated frame 20 marked free")

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        ops=st.lists(st.tuples(st.booleans(), st.integers(0, 2)), max_size=30),
        corruption=st.sampled_from(["none", "list", "refcount", "hot", "alloc"]),
        order=st.integers(0, 3),
        frame=st.integers(0, 56),
    )
    def test_bulk_checks_agree_with_the_walk(self, ops, corruption, order, frame):
        _, buddy = make_allocator(frames=64, reserved=4)
        held = []
        for allocate, alloc_order in ops:
            if allocate:
                try:
                    held.append(buddy.alloc_pages(alloc_order))
                except OutOfMemoryError:
                    pass
            elif held:
                buddy.free_pages(held.pop(0))
        if corruption == "list":
            buddy._free_lists[order].append(frame)
        elif corruption == "refcount":
            buddy.pages[frame].count += 1
        elif corruption == "hot":
            buddy._hot.append(frame)
        elif corruption == "alloc":
            buddy._alloc_orders[frame] = order
        try:
            buddy._raise_first_violation()
        except AllocatorStateError:
            walk_holds = False
        else:
            walk_holds = True
        assert buddy._invariants_hold() == walk_holds
        if corruption == "none":
            assert walk_holds
