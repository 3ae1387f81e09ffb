"""Page-index owners equal the full VMA walk, frame for frame.

``ReverseMap.owners_of`` probes one PTE per chained VMA, at the page's
``index`` (its vpn).  The reference below is the walk it replaced: each
chained VMA is asked whether *any* PTE in its range maps the frame.
Random schedules of fork, COW breaks, munmap, exit, reclaim, eviction
of one process, swap-in, ``mlock`` and ``munlock`` run on a server
machine at every protection level.  After each step every allocated
frame must report the same owners both ways, and every present page at
a locked vpn must carry ``LOCKED`` (a page swapped out when ``mlock``
runs comes back locked, and a forked child's ``munlock`` leaves the
parent's lock in place).
"""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.protection import ProtectionLevel
from repro.core.simulation import Simulation, SimulationConfig
from repro.errors import SwapError


def _maps_frame(vma, frame):
    """True if any PTE inside ``vma`` maps ``frame`` (the old walk)."""
    table = vma.mm.page_table
    for vpn in vma.vpns():
        pte = table.get(vpn)
        if pte is not None and pte.frame == frame:
            return True
    return False


def _reference_owners(kernel, page):
    if page.anon_vma is not None:
        mms = {
            id(vma.mm) for vma in page.anon_vma.vmas
            if _maps_frame(vma, page.frame)
        }
        if not mms:
            return []
        return sorted({
            process.pid for process in kernel.processes()
            if id(process.mm) in mms
        })
    if page.count > 0 or page.reserved:
        return [0]
    return []


def _assert_locked_vpns_pinned(kernel):
    for process in kernel.processes():
        mm = process.mm
        for vpn, pte in mm.page_table.items():
            if not pte.present:
                continue
            vma = mm.find_vma(vpn * mm.page_size)
            if vpn in mm.locked_vpns or (vma is not None and vma.mlocked):
                assert kernel.page(pte.frame).locked, (
                    f"pid {process.pid} vpn {vpn:#x} frame {pte.frame}"
                )


def _assert_owners_agree(kernel):
    for frame in range(kernel.physmem.num_frames):
        page = kernel.page(frame)
        if page.allocated:
            assert kernel.rmap.owners_of(page) == _reference_owners(kernel, page), (
                f"frame {frame}"
            )


#: One schedule step: an operation and a token choosing its target.
_STEPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["spawn", "fork", "cow", "mmap", "munmap", "exit", "reclaim",
             "evict", "swapin", "serve", "mlock", "munlock"]
        ),
        st.integers(0, 2 ** 16),
    ),
    min_size=4,
    max_size=12,
)

PAGE = 4096

#: Lock, fork, ``munlock`` in the child, COW break in the child, evict
#: the parent: the frame the parent still maps at its locked vpn keeps
#: ``LOCKED`` through the child's ``munlock``.
CHILD_MUNLOCK = [
    ("spawn", 0), ("mlock", 0), ("fork", 0), ("munlock", 1), ("cow", 1),
    ("evict", 0),
]


class Schedule:
    """User processes beside the server, each with the addresses it wrote."""

    def __init__(self, sim):
        self.sim = sim
        self.kernel = sim.kernel
        #: pid -> (process, heap addresses, extra VMAs)
        self.procs = {}

    def _pick(self, token):
        if not self.procs:
            return None
        pids = sorted(self.procs)
        return self.procs[pids[token % len(pids)]]

    def step(self, op, token):
        kernel = self.kernel
        entry = self._pick(token)
        if op == "spawn" or entry is None:
            proc = kernel.create_process(f"user{token}")
            addrs = []
            for index in range(1 + token % 4):
                addr = proc.heap.malloc(PAGE)
                proc.mm.write(addr, bytes([1 + index]) * 64)
                addrs.append(addr)
            self.procs[proc.pid] = (proc, addrs, [])
        elif op == "fork":
            proc, addrs, vmas = entry
            child = kernel.fork(proc)
            child_vmas = [
                vma for vma in child.mm.vmas
                if any(vma.start == parent.start for parent in vmas)
            ]
            self.procs[child.pid] = (child, list(addrs), child_vmas)
        elif op == "cow":
            proc, addrs, _ = entry
            addr = addrs[token % len(addrs)]
            proc.mm.write(addr + 8, token.to_bytes(4, "little"))
        elif op == "mmap":
            proc, _, vmas = entry
            vma = proc.mm.mmap_anon(PAGE * (1 + token % 3))
            for offset in range(0, vma.end - vma.start, PAGE):
                proc.mm.write(vma.start + offset, b"\x5a" * 32)
            vmas.append(vma)
        elif op == "munmap":
            proc, _, vmas = entry
            if vmas:
                proc.mm.munmap(vmas.pop(token % len(vmas)))
        elif op == "exit":
            proc, _, _ = entry
            kernel.exit_process(proc)
            del self.procs[proc.pid]
        elif op == "reclaim":
            kernel.reclaim_pages(1 + token % 64)
        elif op == "evict":
            # Reclaim walks processes in pid order, so small targets
            # rarely reach past the server: swap out one process.
            proc, _, _ = entry
            try:
                for vpn, _pte in list(proc.mm.swap_out_candidates()):
                    proc.mm.swap_out(vpn)
            except SwapError:
                pass  # swap is full: stop, as reclaim does
        elif op == "swapin":
            proc, addrs, _ = entry
            for addr in addrs:
                proc.mm.read(addr, 16)
        elif op == "serve":
            self.sim.cycle_connections(1 + token % 2)
        elif op == "mlock":
            proc, addrs, _ = entry
            proc.mm.mlock(addrs[token % len(addrs)], PAGE)
        elif op == "munlock":
            proc, addrs, _ = entry
            proc.mm.munlock(addrs[token % len(addrs)], PAGE)


@pytest.mark.parametrize("level", list(ProtectionLevel), ids=lambda lv: lv.value)
@settings(
    max_examples=10,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(0, 2 ** 16), steps=_STEPS)
@example(seed=0, steps=CHILD_MUNLOCK)
def test_page_index_owners_equal_vma_walk(level, seed, steps):
    sim = Simulation(
        SimulationConfig(level=level, memory_mb=4, key_bits=256, seed=seed)
    )
    sim.start_server()
    schedule = Schedule(sim)
    _assert_owners_agree(sim.kernel)
    _assert_locked_vpns_pinned(sim.kernel)
    for op, token in steps:
        schedule.step(op, token)
        _assert_owners_agree(sim.kernel)
        _assert_locked_vpns_pinned(sim.kernel)


def test_swapped_in_frames_are_compared():
    """The schedules reach swapped-in anonymous pages (not only fresh
    faults and COW copies)."""
    sim = Simulation(SimulationConfig(memory_mb=4, key_bits=256, seed=1))
    sim.start_server()
    schedule = Schedule(sim)
    schedule.step("spawn", 3)
    proc, addrs, _ = next(iter(schedule.procs.values()))
    sim.kernel.reclaim_pages(10_000)
    assert all(proc.mm.translate(addr) is None for addr in addrs)
    schedule.step("swapin", 0)
    for addr in addrs:
        page = sim.kernel.page(proc.mm.translate(addr) // PAGE)
        assert page.anon_vma is not None
        assert sim.kernel.rmap.owners_of(page) == [proc.pid]
    _assert_owners_agree(sim.kernel)
