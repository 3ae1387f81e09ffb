"""Reverse-mapping tests: frame → owning PIDs."""

from repro.kernel.kernel import Kernel, KernelConfig


def make_kernel():
    return Kernel(KernelConfig.vulnerable(memory_mb=4))


class TestOwnersOf:
    def test_anonymous_page_owned_by_process(self):
        kernel = make_kernel()
        proc = kernel.create_process("owner")
        addr = proc.heap.malloc(64)
        proc.mm.write(addr, b"data")
        frame = proc.mm.translate(addr) // kernel.physmem.page_size
        assert kernel.rmap.owners_of(kernel.page(frame)) == [proc.pid]

    def test_cow_shared_page_owned_by_both(self):
        kernel = make_kernel()
        parent = kernel.create_process("parent")
        addr = parent.heap.malloc(64)
        parent.mm.write(addr, b"shared")
        child = kernel.fork(parent)
        frame = parent.mm.translate(addr) // kernel.physmem.page_size
        owners = kernel.rmap.owners_of(kernel.page(frame))
        assert owners == sorted([parent.pid, child.pid])

    def test_after_cow_break_each_owns_its_copy(self):
        kernel = make_kernel()
        parent = kernel.create_process("parent")
        addr = parent.heap.malloc(64)
        parent.mm.write(addr, b"shared")
        child = kernel.fork(parent)
        child.mm.write(addr, b"child!")
        page_size = kernel.physmem.page_size
        parent_frame = parent.mm.translate(addr) // page_size
        child_frame = child.mm.translate(addr) // page_size
        assert parent_frame != child_frame
        assert kernel.rmap.owners_of(kernel.page(parent_frame)) == [parent.pid]
        assert kernel.rmap.owners_of(kernel.page(child_frame)) == [child.pid]

    def test_exited_process_not_reported(self):
        kernel = make_kernel()
        parent = kernel.create_process("parent")
        addr = parent.heap.malloc(64)
        parent.mm.write(addr, b"shared")
        child = kernel.fork(parent)
        frame = parent.mm.translate(addr) // kernel.physmem.page_size
        kernel.exit_process(child)
        assert kernel.rmap.owners_of(kernel.page(frame)) == [parent.pid]

    def test_kernel_page_reports_pid_zero(self):
        kernel = make_kernel()
        from repro.mem.page import PageFlag

        frame = kernel.buddy.alloc_pages(0, PageFlag.KERNEL_BUFFER)
        assert kernel.rmap.owners_of(kernel.page(frame)) == [0]

    def test_free_page_reports_nobody(self):
        kernel = make_kernel()
        frame = kernel.buddy.alloc_pages(0)
        kernel.buddy.free_pages(frame)
        assert kernel.rmap.owners_of(kernel.page(frame)) == []

    def test_reserved_page_reports_kernel(self):
        kernel = make_kernel()
        assert kernel.rmap.owners_of(kernel.page(0)) == [0]

    def test_many_children_share_one_frame(self):
        """The COW trick: N children, one physical key page."""
        kernel = make_kernel()
        parent = kernel.create_process("sshd")
        addr = parent.heap.memalign(kernel.physmem.page_size, 256)
        parent.mm.write(addr, b"K" * 256)
        frame = parent.mm.translate(addr) // kernel.physmem.page_size
        kids = [kernel.fork(parent) for _ in range(5)]
        owners = kernel.rmap.owners_of(kernel.page(frame))
        assert owners == sorted([parent.pid] + [kid.pid for kid in kids])
        assert kernel.page(frame).count == 6

    def test_swapped_in_page_owned_by_process(self):
        """A page read back from swap is anchored like a fresh fault."""
        kernel = make_kernel()
        proc = kernel.create_process("owner")
        addr = proc.heap.malloc(64)
        proc.mm.write(addr, b"data")
        assert kernel.reclaim_pages(10_000) > 0
        assert proc.mm.translate(addr) is None
        proc.mm.write(addr, b"more")
        frame = proc.mm.translate(addr) // kernel.physmem.page_size
        assert kernel.rmap.owners_of(kernel.page(frame)) == [proc.pid]

    def test_page_swapped_in_by_fork_owned_by_both(self):
        """fork() brings swapped pages back before sharing them."""
        kernel = make_kernel()
        parent = kernel.create_process("parent")
        addr = parent.heap.malloc(64)
        parent.mm.write(addr, b"data")
        assert kernel.reclaim_pages(10_000) > 0
        child = kernel.fork(parent)
        frame = parent.mm.translate(addr) // kernel.physmem.page_size
        owners = kernel.rmap.owners_of(kernel.page(frame))
        assert owners == sorted([parent.pid, child.pid])
