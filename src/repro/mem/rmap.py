"""Reverse mapping: from a physical frame back to owning processes.

The paper's ``scanmemory`` kernel module leans on the object-based
reverse mapping introduced in the 2.6 series: every anonymous page
points at an ``anon_vma``, which chains the VMAs that may map it; each
VMA belongs to an ``mm_struct``; scanning the process list for that
``mm`` yields the PIDs to print next to each key hit.

We reproduce exactly that chain: :class:`AnonVma` objects are shared
across ``fork()`` (children's VMAs join the parent's anon_vma), so a
COW-shared frame correctly reports *all* processes that can reach it —
which is how the paper shows a single aligned key page being shared by
every sshd child.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.vm import Vma
    from repro.mem.page import Page


class AnonVma:
    """Anchor object chaining the VMAs that may map a set of anon pages."""

    _next_id = 1

    def __init__(self) -> None:
        self.id = AnonVma._next_id
        AnonVma._next_id += 1
        self.vmas: List["Vma"] = []

    def link(self, vma: "Vma") -> None:
        """Add ``vma`` to this anon_vma's chain (``anon_vma_link``)."""
        if vma not in self.vmas:
            self.vmas.append(vma)

    def unlink(self, vma: "Vma") -> None:
        """Remove ``vma`` from the chain (``anon_vma_unlink``)."""
        if vma in self.vmas:
            self.vmas.remove(vma)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AnonVma(id={self.id}, vmas={len(self.vmas)})"


class ReverseMap:
    """Frame → owning-PID resolution, as ``printOwningProcesses`` does."""

    def __init__(self, process_iter) -> None:
        """``process_iter`` is a zero-argument callable yielding live
        processes; the kernel passes its own process-table iterator so
        the rmap never holds stale references."""
        self._process_iter = process_iter

    def owners_of(self, page: "Page") -> List[int]:
        """Return the sorted PIDs of processes that map ``page``.

        Mirrors the module's logic: walk the page's anon_vma chain for
        the VMAs that map the frame, then walk the process list once,
        comparing ``mm`` pointers against theirs.  An anonymous page
        sits at one virtual page number in every address space that
        maps it (fork copies page tables in place), recorded in
        ``page.index`` like Linux's ``page->index``; so each chained VMA
        costs one PTE probe at that vpn, as ``page_address_in_vma``
        does, instead of a walk over its whole range.  Returns ``[0]``
        (the kernel) for allocated pages with no anon_vma, and ``[]``
        for free pages.
        """
        if page.anon_vma is not None:
            vpn, frame = page.index, page.frame
            mms = set()
            for vma in page.anon_vma.vmas:
                mm = vma.mm
                pte = mm.page_table.get(vpn)
                if (
                    pte is not None
                    and pte.frame == frame
                    and vma.start <= vpn * mm.page_size < vma.end
                ):
                    mms.add(id(mm))
            if not mms:
                return []
            return sorted({
                process.pid
                for process in self._process_iter()
                if id(process.mm) in mms
            })
        if page.count > 0 or page.reserved:
            return [0]
        return []
