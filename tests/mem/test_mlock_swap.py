"""``mlock`` on a page that is swapped out when the lock is taken."""

from repro.kernel.kernel import Kernel, KernelConfig


def make_kernel():
    return Kernel(KernelConfig.vulnerable(memory_mb=4))


def frame_of(kernel, proc, addr):
    return proc.mm.translate(addr) // kernel.physmem.page_size


class TestMlockAcrossSwap:
    def test_page_locked_while_swapped_comes_back_locked(self):
        """The swap-in that follows ``mlock`` pins the frame, so a
        second reclaim cannot evict it again."""
        kernel = make_kernel()
        proc = kernel.create_process("owner")
        addr = proc.heap.malloc(64)
        proc.mm.write(addr, b"secret")
        assert kernel.reclaim_pages(10_000) > 0
        assert proc.mm.translate(addr) is None
        proc.mm.mlock(addr, 64)
        assert proc.mm.read(addr, 6) == b"secret"
        assert kernel.page(frame_of(kernel, proc, addr)).locked
        kernel.reclaim_pages(10_000)
        assert proc.mm.translate(addr) is not None
        assert proc.mm.read(addr, 6) == b"secret"

    def test_page_swapped_in_by_fork_keeps_the_lock(self):
        """fork() swaps the page back in; the frame both share is
        pinned because the parent's vpn is locked."""
        kernel = make_kernel()
        parent = kernel.create_process("parent")
        addr = parent.heap.malloc(64)
        parent.mm.write(addr, b"secret")
        assert kernel.reclaim_pages(10_000) > 0
        parent.mm.mlock(addr, 64)
        kernel.fork(parent)
        assert kernel.page(frame_of(kernel, parent, addr)).locked
        kernel.reclaim_pages(10_000)
        assert parent.mm.translate(addr) is not None

    def test_munlocked_page_swapped_in_is_not_locked(self):
        kernel = make_kernel()
        proc = kernel.create_process("owner")
        addr = proc.heap.malloc(64)
        proc.mm.write(addr, b"secret")
        proc.mm.mlock(addr, 64)
        proc.mm.munlock(addr, 64)
        assert kernel.reclaim_pages(10_000) > 0
        assert proc.mm.translate(addr) is None
        assert proc.mm.read(addr, 6) == b"secret"
        assert not kernel.page(frame_of(kernel, proc, addr)).locked


class TestMunlockInForkedChild:
    def test_child_munlock_keeps_the_parents_lock(self):
        """The child's ``munlock`` drops only its own lock: the frame it
        shared with the parent stays pinned while the parent's vpn is
        locked, so reclaim after the child's COW break cannot evict the
        parent's page."""
        kernel = make_kernel()
        parent = kernel.create_process("parent")
        addr = parent.heap.malloc(64)
        parent.mm.write(addr, b"secret")
        parent.mm.mlock(addr, 64)
        child = kernel.fork(parent)
        child.mm.munlock(addr, 64)
        child.mm.write(addr, b"copied")
        kernel.reclaim_pages(10_000)
        assert parent.mm.translate(addr) is not None
        assert kernel.page(frame_of(kernel, parent, addr)).locked
        assert parent.mm.read(addr, 6) == b"secret"
