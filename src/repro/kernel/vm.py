"""Virtual memory: VMAs, page tables, copy-on-write fork, mlock, swap.

This module carries the mechanism the paper's application-level
solution exploits: after ``fork()`` anonymous private pages are shared
copy-on-write, so a key placed on a dedicated page that *no process
ever writes* stays a single physical frame no matter how many children
the server forks.  Conversely, ordinary heap pages holding key copies
are written constantly, so every child's COW break mints another
physical copy of the key — the flooding observed in Figures 5 and 6.

The kernel-level countermeasure's second patch point lives here too:
``zap_pte_range`` clearing a page at unmap time when it holds the last
reference (the paper's ``memory.c`` diff).
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple

from repro.errors import BadAddressError, ProtectionFaultError, ReproError
from repro.mem.page import PageFlag
from repro.mem.rmap import AnonVma

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.kernel import Kernel

#: Classic 32-bit x86 layout the paper's testbed used.
HEAP_BASE = 0x0804_8000
MMAP_BASE = 0x4000_0000
STACK_TOP = 0xBFFF_F000
STACK_SIZE_PAGES = 8


class VmaFlag(enum.Flag):
    """VMA protection and behaviour flags."""

    NONE = 0
    READ = enum.auto()
    WRITE = enum.auto()
    EXEC = enum.auto()
    SHARED = enum.auto()
    MLOCKED = enum.auto()
    GROWSDOWN = enum.auto()


class Pte:
    """One page-table entry."""

    __slots__ = ("frame", "writable", "cow", "swap_slot")

    def __init__(self) -> None:
        self.frame: Optional[int] = None
        self.writable = False
        self.cow = False
        self.swap_slot: Optional[int] = None

    @property
    def present(self) -> bool:
        return self.frame is not None

    @property
    def swapped(self) -> bool:
        return self.swap_slot is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Pte(frame={self.frame}, writable={self.writable}, "
            f"cow={self.cow}, swap_slot={self.swap_slot})"
        )


class Vma:
    """One virtual memory area (``vm_area_struct``)."""

    def __init__(
        self,
        mm: "AddressSpace",
        start: int,
        end: int,
        flags: VmaFlag,
        name: str = "",
        anon_vma: Optional[AnonVma] = None,
    ) -> None:
        if start % mm.page_size or end % mm.page_size or end <= start:
            raise BadAddressError(f"bad VMA range [{start:#x}, {end:#x})")
        self.mm = mm
        self.start = start
        self.end = end
        self.flags = flags
        self.name = name
        self.anon_vma = anon_vma if anon_vma is not None else AnonVma()
        self.anon_vma.link(self)

    def contains(self, vaddr: int) -> bool:
        return self.start <= vaddr < self.end

    def vpns(self) -> Iterator[int]:
        return iter(range(self.start // self.mm.page_size, self.end // self.mm.page_size))

    @property
    def mlocked(self) -> bool:
        return bool(self.flags & VmaFlag.MLOCKED)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Vma({self.name or 'anon'}, [{self.start:#x}, {self.end:#x}), {self.flags!r})"


def _mapped_locked(page) -> bool:
    """True if some VMA on ``page``'s anon_vma chain maps it, at its
    ``index``, in an address space that holds that vpn locked."""
    if page.anon_vma is None:
        return False
    vpn = page.index
    for vma in page.anon_vma.vmas:
        mm = vma.mm
        pte = mm.page_table.get(vpn)
        if (
            pte is not None
            and pte.frame == page.frame
            and vma.contains(vpn * mm.page_size)
            and mm._is_locked_vpn(vma, vpn)
        ):
            return True
    return False


class AddressSpace:
    """One ``mm_struct``: the VMA list plus a single-level page table."""

    def __init__(self, kernel: "Kernel") -> None:
        self.kernel = kernel
        self.page_size = kernel.physmem.page_size
        self.vmas: List[Vma] = []
        self.page_table: Dict[int, Pte] = {}
        #: Page-granular mlock bookkeeping (not inherited across fork,
        #: as on real Linux).
        self.locked_vpns: set = set()
        self._mmap_next = MMAP_BASE
        self.torn_down = False

    # ------------------------------------------------------------------
    # VMA management
    # ------------------------------------------------------------------
    def find_vma(self, vaddr: int) -> Optional[Vma]:
        for vma in self.vmas:
            if vma.contains(vaddr):
                return vma
        return None

    def mmap_anon(
        self,
        length: int,
        flags: VmaFlag = VmaFlag.READ | VmaFlag.WRITE,
        name: str = "",
        addr: Optional[int] = None,
    ) -> Vma:
        """Create an anonymous private mapping; returns its VMA."""
        length = self._round_up(length)
        if addr is None:
            addr = self._mmap_next
            self._mmap_next += length + self.page_size  # guard gap
        vma = Vma(self, addr, addr + length, flags, name=name)
        self._check_overlap(vma)
        self.vmas.append(vma)
        return vma

    def expand_vma(self, vma: Vma, new_end: int) -> None:
        """Grow a VMA upward (the ``brk`` path)."""
        new_end = self._round_up(new_end)
        if new_end < vma.end:
            raise BadAddressError("expand_vma cannot shrink")
        old_end = vma.end
        vma.end = new_end
        try:
            self._check_overlap(vma, ignore=vma)
        except BadAddressError:
            vma.end = old_end
            raise

    def _check_overlap(self, candidate: Vma, ignore: Optional[Vma] = None) -> None:
        for vma in self.vmas:
            if vma is candidate or vma is ignore:
                continue
            if candidate.start < vma.end and vma.start < candidate.end:
                raise BadAddressError(
                    f"mapping [{candidate.start:#x},{candidate.end:#x}) overlaps {vma!r}"
                )

    def munmap(self, vma: Vma) -> None:
        """Unmap one VMA, releasing its frames (``zap_pte_range``)."""
        if vma not in self.vmas:
            raise BadAddressError("munmap of VMA not in this address space")
        for vpn in list(vma.vpns()):
            self._zap_vpn(vpn)
        vma.anon_vma.unlink(vma)
        self.vmas.remove(vma)

    def _zap_vpn(self, vpn: int) -> None:
        pte = self.page_table.get(vpn)
        if pte is None:
            self.locked_vpns.discard(vpn)
            return
        if pte.present:
            frame = pte.frame
            assert frame is not None
            page = self.kernel.buddy.pages[frame]
            # The paper's memory.c patch: clear the page at unmap time
            # when this mapping holds the last reference.
            if self.kernel.config.zero_on_unmap and page.count == 1 and not page.reserved:
                self.kernel.physmem.clear_frame(frame)
                self.kernel.clock.charge_page_clear()
            # Drop our reference *before* removing the PTE: if the put
            # faults at entry, the mapping is still on the page table
            # and a retried teardown revisits it instead of leaking the
            # reference (and eventually the frame) forever.  If it
            # faults *after* the drop took effect (observable as a
            # lower refcount), finish the zap so the retry does not
            # double-put.
            refs_before = page.count
            try:
                self.kernel.buddy.put_page(frame)
            except ReproError:
                if page.count < refs_before:
                    self.locked_vpns.discard(vpn)
                    self.page_table.pop(vpn, None)
                raise
        # For a swapped PTE this drops the swap slot; its bytes stay on
        # the device, unscrubbed.
        self.locked_vpns.discard(vpn)
        del self.page_table[vpn]

    def teardown(self) -> None:
        """Release everything; called from ``exit()``."""
        if self.torn_down:
            return
        for vma in list(self.vmas):
            self.munmap(vma)
        self.torn_down = True

    def _round_up(self, n: int) -> int:
        mask = self.page_size - 1
        return (n + mask) & ~mask

    # ------------------------------------------------------------------
    # faults
    # ------------------------------------------------------------------
    def _fault(self, vma: Vma, vpn: int, write: bool) -> Pte:
        """Resolve a page fault at ``vpn`` inside ``vma``."""
        pte = self.page_table.get(vpn)
        if pte is None:
            pte = Pte()
            self.page_table[vpn] = pte

        if pte.swapped:
            self._swap_in(vma, vpn, pte)

        if not pte.present:
            self._anonymous_fault(vma, vpn, pte)

        if write:
            if not (vma.flags & VmaFlag.WRITE):
                raise ProtectionFaultError(
                    f"write to read-only mapping {vma.name or hex(vma.start)}"
                )
            if pte.cow:
                self._break_cow(vma, vpn, pte)
            pte.writable = True
        return pte

    def _is_locked_vpn(self, vma: Vma, vpn: int) -> bool:
        return vma.mlocked or vpn in self.locked_vpns

    def _anonymous_fault(self, vma: Vma, vpn: int, pte: Pte) -> None:
        """``do_anonymous_page``: hand out a *zeroed* frame.

        The stock kernel always clears anonymous pages before mapping
        them into userspace (otherwise every process could read other
        processes' garbage), so this clear exists in baseline and
        patched kernels alike.
        """
        frame = self.kernel.buddy.alloc_pages(0, PageFlag.ANON)
        self.kernel.physmem.clear_frame(frame)
        self.kernel.clock.advance(self.kernel.clock.costs.page_clear_us, "anon_zero")
        page = self.kernel.buddy.pages[frame]
        page.anon_vma = vma.anon_vma
        page.index = vpn
        if self._is_locked_vpn(vma, vpn):
            page.set_flag(PageFlag.LOCKED)
        pte.frame = frame
        pte.writable = bool(vma.flags & VmaFlag.WRITE)
        pte.cow = False

    def _break_cow(self, vma: Vma, vpn: int, pte: Pte) -> None:
        """``do_wp_page``: write to a COW-shared frame."""
        frame = pte.frame
        assert frame is not None
        page = self.kernel.buddy.pages[frame]
        if page.count == 1:
            # Sole owner left — just re-enable the write bit.
            pte.cow = False
            pte.writable = True
            return
        new_frame = self.kernel.buddy.alloc_pages(0, PageFlag.ANON)
        self.kernel.physmem.copy_frame(frame, new_frame)
        self.kernel.clock.charge_page_copy()
        new_page = self.kernel.buddy.pages[new_frame]
        new_page.anon_vma = vma.anon_vma
        new_page.index = vpn
        if self._is_locked_vpn(vma, vpn):
            new_page.set_flag(PageFlag.LOCKED)
        self.kernel.buddy.put_page(frame)
        pte.frame = new_frame
        pte.cow = False
        pte.writable = True

    def _swap_in(self, vma: Vma, vpn: int, pte: Pte) -> None:
        """``do_swap_page``: read the slot back into a new anonymous
        frame, anchored in ``vma``'s anon_vma and locked under
        ``mlock`` like a fresh fault."""
        assert pte.swap_slot is not None
        content = self.kernel.swap.swap_in(pte.swap_slot)
        frame = self.kernel.buddy.alloc_pages(0, PageFlag.ANON)
        self.kernel.physmem.write_frame(frame, content)
        page = self.kernel.buddy.pages[frame]
        page.anon_vma = vma.anon_vma
        page.index = vpn
        if self._is_locked_vpn(vma, vpn):
            page.set_flag(PageFlag.LOCKED)
        pte.frame = frame
        pte.swap_slot = None
        self.kernel.clock.charge_disk_read()

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def write(self, vaddr: int, data: bytes) -> None:
        """Write ``data`` at virtual address ``vaddr`` (with faults/COW)."""
        offset = 0
        while offset < len(data):
            addr = vaddr + offset
            vma = self.find_vma(addr)
            if vma is None:
                raise BadAddressError(f"write to unmapped address {addr:#x}")
            vpn = addr // self.page_size
            pte = self._fault(vma, vpn, write=True)
            page_off = addr % self.page_size
            chunk = min(len(data) - offset, self.page_size - page_off)
            assert pte.frame is not None
            self.kernel.physmem.write(
                pte.frame * self.page_size + page_off, data[offset : offset + chunk]
            )
            offset += chunk

    def read(self, vaddr: int, length: int) -> bytes:
        """Read ``length`` bytes at virtual address ``vaddr``."""
        out = bytearray()
        offset = 0
        while offset < length:
            addr = vaddr + offset
            vma = self.find_vma(addr)
            if vma is None:
                raise BadAddressError(f"read from unmapped address {addr:#x}")
            vpn = addr // self.page_size
            pte = self._fault(vma, vpn, write=False)
            page_off = addr % self.page_size
            chunk = min(length - offset, self.page_size - page_off)
            assert pte.frame is not None
            out += self.kernel.physmem.read(
                pte.frame * self.page_size + page_off, chunk
            )
            offset += chunk
        return bytes(out)

    def translate(self, vaddr: int) -> Optional[int]:
        """Virtual → physical, or None if not present.  No faulting."""
        pte = self.page_table.get(vaddr // self.page_size)
        if pte is None or not pte.present:
            return None
        assert pte.frame is not None
        return pte.frame * self.page_size + vaddr % self.page_size

    # ------------------------------------------------------------------
    # mlock
    # ------------------------------------------------------------------
    def mlock(self, vaddr: int, length: int) -> None:
        """Pin ``[vaddr, vaddr+length)``: never swapped out.

        Page-granular, like the real syscall: only the covered pages
        are locked, not the whole VMA they live in.  Pages already
        present are flagged immediately; pages faulted in later inherit
        the flag from :attr:`locked_vpns`.
        """
        if length <= 0:
            raise BadAddressError("mlock length must be positive")
        first = vaddr // self.page_size
        last = (vaddr + length - 1) // self.page_size
        for vpn in range(first, last + 1):
            self.locked_vpns.add(vpn)
            pte = self.page_table.get(vpn)
            if pte is not None and pte.present:
                assert pte.frame is not None
                self.kernel.buddy.pages[pte.frame].set_flag(PageFlag.LOCKED)

    def munlock(self, vaddr: int, length: int) -> None:
        """Undo :meth:`mlock` for the covered pages.

        A frame stays LOCKED while any address space still maps it at a
        locked vpn: a forked child's ``munlock`` must not unpin the page
        it shares copy-on-write with a parent that keeps its lock (Linux
        keeps a page resident while any mapping of it is ``VM_LOCKED``).
        """
        first = vaddr // self.page_size
        last = (vaddr + length - 1) // self.page_size
        for vpn in range(first, last + 1):
            self.locked_vpns.discard(vpn)
            pte = self.page_table.get(vpn)
            if pte is not None and pte.present:
                assert pte.frame is not None
                page = self.kernel.buddy.pages[pte.frame]
                if not _mapped_locked(page):
                    page.clear_flag(PageFlag.LOCKED)

    # ------------------------------------------------------------------
    # fork
    # ------------------------------------------------------------------
    def fork_into(self, child: "AddressSpace") -> None:
        """``copy_mm``: duplicate VMAs, share frames copy-on-write."""
        child._mmap_next = self._mmap_next
        for vma in self.vmas:
            child_vma = Vma(
                child, vma.start, vma.end, vma.flags, name=vma.name, anon_vma=vma.anon_vma
            )
            child.vmas.append(child_vma)
        for vpn, pte in self.page_table.items():
            if pte.swapped:
                # Keep it simple: bring swapped pages back before sharing.
                self._swap_in(self.find_vma(vpn * self.page_size), vpn, pte)
            if not pte.present:
                continue
            child_pte = Pte()
            child_pte.frame = pte.frame
            assert pte.frame is not None
            self.kernel.buddy.get_page(pte.frame)
            vma = self.find_vma(vpn * self.page_size)
            writable_vma = vma is not None and bool(vma.flags & VmaFlag.WRITE)
            if writable_vma and not (vma.flags & VmaFlag.SHARED):
                pte.cow = True
                pte.writable = False
                child_pte.cow = True
                child_pte.writable = False
            else:
                child_pte.writable = pte.writable
                child_pte.cow = pte.cow
            child.page_table[vpn] = child_pte

    # ------------------------------------------------------------------
    # swap-out (memory pressure)
    # ------------------------------------------------------------------
    def swap_out_candidates(self) -> Iterator[Tuple[int, Pte]]:
        """PTEs eligible for swap-out: present, unlocked, unshared."""
        for vpn, pte in self.page_table.items():
            if not pte.present:
                continue
            assert pte.frame is not None
            page = self.kernel.buddy.pages[pte.frame]
            if page.locked or page.count != 1 or page.reserved:
                continue
            yield vpn, pte

    def swap_out(self, vpn: int) -> int:
        """Evict one page to swap; returns the slot.

        The vacated frame is freed *without* being cleared (unless the
        kernel's zero-on-free patch is active) — the paper's motivation
        for disabling swapping of key memory.
        """
        pte = self.page_table.get(vpn)
        if pte is None or not pte.present:
            raise BadAddressError(f"swap_out of non-present vpn {vpn}")
        assert pte.frame is not None
        content = self.kernel.physmem.read_frame(pte.frame)
        slot = self.kernel.swap.swap_out(content)
        if self.kernel.keysan is not None:
            self.kernel.keysan.note_swap_out(pte.frame, slot)
        self.kernel.buddy.put_page(pte.frame)
        pte.frame = None
        pte.swap_slot = slot
        pte.cow = False
        self.kernel.clock.charge_disk_read()
        return slot

    def resident_pages(self) -> int:
        """Number of present pages (the RSS)."""
        return sum(1 for pte in self.page_table.values() if pte.present)
