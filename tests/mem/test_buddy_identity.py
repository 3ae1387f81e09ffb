"""Identity lock for the buddy allocator's hot paths.

``ReferenceBuddy`` keeps a frozen copy of the allocator's alloc, free,
merge and insert code from before the order-0 fast path (one ``range``
loop and ``Page.reset_state()`` per freed frame, the hot-list overflow
in its own method, attribute lookups in the merge loop).  Random
operation sequences run on a live allocator and on the reference side
by side, and after every step both must hold the same free lists, hot
list, allocation table, page descriptors, counters, frame contents and
placement-rng state.  Boot aging at 16 and 32 MB is compared the same
way, so every free-list position a simulation depends on is pinned.
"""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AllocatorStateError, OutOfMemoryError
from repro.kernel.kernel import Kernel, KernelConfig
from repro.mem.buddy import HOT_LIST_CAPACITY, BuddyAllocator
from repro.mem.page import PageFlag
from repro.mem.physmem import PhysicalMemory


class ReferenceBuddy(BuddyAllocator):
    """The frozen reference: the allocator's mutating paths as they were."""

    def _insert_free(self, frame, order, front=False):
        free_list = self._free_lists[order]
        if front:
            if self.placement_rng is not None and free_list:
                free_list.insert(self.placement_rng.randrange(len(free_list) + 1), frame)
            else:
                free_list.insert(0, frame)
        else:
            free_list.append(frame)
        self._free_heads[frame] = order

    def _remove_free(self, frame, order):
        self._free_lists[order].remove(frame)
        del self._free_heads[frame]

    def _pop_free(self, order):
        frame = self._free_lists[order].pop()
        del self._free_heads[frame]
        return frame

    def alloc_pages(self, order=0, flags=PageFlag.NONE):
        if not 0 <= order <= self.max_order:
            raise AllocatorStateError(f"invalid order {order}")
        if self.faults is not None and self.faults.tick("buddy.alloc"):
            raise OutOfMemoryError(f"injected allocation failure (order {order})")
        if order == 0 and self._hot:
            frame = self._hot.pop()
            self._hot_set.discard(frame)
            self._commit_alloc(frame, 0, flags)
            return frame
        try:
            head = self._alloc_from_buddy(order)
        except OutOfMemoryError:
            if self.oom_reclaim is None or self.oom_reclaim(1 << order) <= 0:
                raise
            head = self._alloc_from_buddy(order)
        self._commit_alloc(head, order, flags)
        return head

    def _alloc_from_buddy(self, order):
        current = order
        while current <= self.max_order and not self._free_lists[current]:
            current += 1
        if current > self.max_order:
            if order == 0 and self._hot:
                frame = self._hot.pop()
                self._hot_set.discard(frame)
                return frame
            self._drain_hot()
            current = order
            while current <= self.max_order and not self._free_lists[current]:
                current += 1
            if current > self.max_order:
                raise OutOfMemoryError(f"no free block of order {order}")
        head = self._pop_free(current)
        while current > order:
            current -= 1
            upper = head + (1 << current)
            self._insert_free(upper, current)
        return head

    def _commit_alloc(self, head, order, flags):
        size = 1 << order
        for frame in range(head, head + size):
            page = self.pages[frame]
            if page.count != 0:
                raise AllocatorStateError(f"allocating in-use frame {frame}")
            page.count = 1
            page.flags = flags
        self.pages[head].order = order
        self._alloc_orders[head] = order
        self.alloc_count += 1

    def free_pages(self, head, order=None):
        recorded = self._alloc_orders.get(head)
        if recorded is None:
            raise AllocatorStateError(f"free of unallocated head frame {head}")
        if order is not None and order != recorded:
            raise AllocatorStateError(
                f"free order {order} does not match allocation order {recorded}"
            )
        order = recorded
        size = 1 << order
        for frame in range(head, head + size):
            page = self.pages[frame]
            if page.count != 1:
                raise AllocatorStateError(
                    f"freeing frame {frame} with refcount {page.count}"
                )
            page.count = 0
            page.reset_state()
        del self._alloc_orders[head]
        self.free_count += 1

        if self.clear_on_free:
            for frame in range(head, head + size):
                self._clear_frame(frame)

        try:
            if self.on_free is not None:
                self.on_free(head, order, self.clear_on_free)
        finally:
            if order == 0:
                self._free_hot(head)
            else:
                self._merge_and_insert(head, order)

    def _free_hot(self, frame):
        self._hot.append(frame)
        self._hot_set.add(frame)
        while len(self._hot) > HOT_LIST_CAPACITY:
            cold = self._hot.popleft()
            self._hot_set.discard(cold)
            self._merge_and_insert(cold, 0)

    def _drain_hot(self):
        while self._hot:
            frame = self._hot.popleft()
            self._hot_set.discard(frame)
            self._merge_and_insert(frame, 0)

    def _merge_and_insert(self, head, order, front=True):
        while order < self.max_order:
            buddy = head ^ (1 << order)
            if self._free_heads.get(buddy) != order or buddy in self._hot_set:
                break
            self._remove_free(buddy, order)
            head = min(head, buddy)
            order += 1
        self._insert_free(head, order, front=front)

    def get_page(self, frame):
        page = self.pages[frame]
        if page.count == 0:
            raise AllocatorStateError(f"get_page on free frame {frame}")
        page.get()

    def put_page(self, frame):
        page = self.pages[frame]
        remaining = page.put()
        if remaining == 0:
            page.count = 1
            if frame not in self._alloc_orders:
                raise AllocatorStateError(f"put_page on untracked frame {frame}")
            self.free_pages(frame)


def state(buddy):
    """Everything the two allocators must agree on."""
    rng = buddy.placement_rng
    return (
        {order: list(heads) for order, heads in buddy._free_lists.items()},
        dict(buddy._free_heads),
        list(buddy._hot),
        set(buddy._hot_set),
        dict(buddy._alloc_orders),
        # Reverse-mapping anchors are numbered per interpreter, not
        # per machine: compare only whether a frame has one.
        [(p.count, p.flags, p.anon_vma is None, p.mapping, p.order)
         for p in buddy.pages],
        (buddy.alloc_count, buddy.free_count, buddy.cleared_frames),
        rng.getstate() if rng is not None else None,
        hashlib.sha256(buddy.physmem.snapshot()).hexdigest(),
    )


FRAMES = 48

OPS = st.lists(
    st.one_of(
        st.tuples(st.just("alloc"), st.integers(0, 3)),
        st.tuples(st.sampled_from(["free", "get", "put"]), st.integers(0, 63)),
    ),
    max_size=120,
)


def make(cls, placement_seed, clear_on_free, calls):
    mem = PhysicalMemory(num_frames=FRAMES)
    rng = random.Random(placement_seed) if placement_seed is not None else None
    buddy = cls(mem, reserved_frames=2, placement_rng=rng)
    buddy.clear_on_free = clear_on_free
    buddy.on_free = lambda head, order, cleared: calls.append((head, order, cleared))
    buddy.on_page_clear = calls.append
    return buddy


def step(buddy, live, op, arg):
    """Apply one operation; returns its outcome, errors included."""
    try:
        if op == "alloc":
            head = buddy.alloc_pages(arg, PageFlag.ANON)
            page = buddy.pages[head]
            page.mapping = (7, head)
            buddy.physmem.write(buddy.physmem.frame_base(head), bytes([head + 1]))
            live.append(head)
            return head
        if not live:
            return None
        head = live[arg % len(live)]
        if op == "free":
            live.remove(head)
            return buddy.free_pages(head)
        if op == "get":
            return buddy.get_page(head)
        if buddy.pages[head].count == 1:
            live.remove(head)
        return buddy.put_page(head)
    except (AllocatorStateError, OutOfMemoryError) as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    ops=OPS,
    placement_seed=st.sampled_from([None, 5, 6]),
    clear_on_free=st.booleans(),
)
def test_every_step_matches_the_reference(ops, placement_seed, clear_on_free):
    ref_calls, live_calls = [], []
    ref = make(ReferenceBuddy, placement_seed, clear_on_free, ref_calls)
    buddy = make(BuddyAllocator, placement_seed, clear_on_free, live_calls)
    assert state(buddy) == state(ref)
    ref_live, buddy_live = [], []
    for op, arg in ops:
        expected = step(ref, ref_live, op, arg)
        assert step(buddy, buddy_live, op, arg) == expected, (op, arg)
        assert buddy_live == ref_live
        assert state(buddy) == state(ref), (op, arg)
        assert live_calls == ref_calls
    buddy.check_invariants()


def aged(memory_mb, seed, reference):
    kern = Kernel(KernelConfig.vulnerable(memory_mb=memory_mb))
    if reference:
        kern.buddy.__class__ = ReferenceBuddy
    kern.age_memory(random.Random(seed))
    return kern


@pytest.mark.parametrize(
    "memory_mb, seed", [(16, 0), (16, 1), (16, 2), (32, 0), (32, 1)]
)
def test_boot_aging_matches_the_reference(memory_mb, seed):
    buddy = aged(memory_mb, seed, reference=False)
    ref = aged(memory_mb, seed, reference=True)
    assert isinstance(ref.buddy, ReferenceBuddy)
    assert state(buddy.buddy) == state(ref.buddy)
    assert buddy._aged_holders == ref._aged_holders
