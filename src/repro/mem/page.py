"""The ``struct page`` analog: per-frame kernel bookkeeping.

Every physical frame has a :class:`Page` descriptor carrying the state
the paper's tooling depends on:

* ``count`` — the reference count.  Copy-on-write sharing after
  ``fork()`` shows up as ``count > 1``; the paper's ``memory.c`` patch
  clears a page on unmap only when ``page_count(page) == 1``.
* ``anon_vma`` — the reverse-mapping anchor the ``scanmemory`` module
  walks to print owning PIDs, and ``index`` — the virtual page number
  the frame is mapped at (Linux's ``page->index``), so the walk probes
  one PTE per chained VMA.
* ``flags`` — LOCKED (mlocked, never swapped), PAGECACHE (holds file
  data such as the PEM-encoded key), RESERVED (kernel text/data).
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Optional, Tuple

from repro.errors import AllocatorStateError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mem.rmap import AnonVma


class PageFlag(enum.Flag):
    """Subset of the kernel page flags relevant to the reproduction."""

    NONE = 0
    #: Kernel text/static data; never allocated or freed.
    RESERVED = enum.auto()
    #: mlock()ed — must never be swapped out.
    LOCKED = enum.auto()
    #: Belongs to the page cache (file-backed data, e.g. the PEM file).
    PAGECACHE = enum.auto()
    #: Anonymous user memory (heap/stack), subject to COW.
    ANON = enum.auto()
    #: Modified since last written back (page-cache pages only).
    DIRTY = enum.auto()
    #: Kernel-internal buffer (e.g. an ext2 directory block buffer).
    KERNEL_BUFFER = enum.auto()


class Page:
    """Per-frame descriptor.  One exists for every physical frame."""

    __slots__ = ("frame", "count", "flags", "anon_vma", "index", "mapping", "order")

    def __init__(self, frame: int) -> None:
        self.frame = frame
        #: Reference count; 0 means free.
        self.count = 0
        self.flags = PageFlag.NONE
        #: Reverse-mapping anchor for anonymous pages (or None).
        self.anon_vma: Optional["AnonVma"] = None
        #: Virtual page number of an anonymous page, set together with
        #: ``anon_vma`` (meaningless while that is None).
        self.index = 0
        #: ``(file_id, page_index)`` for page-cache pages (or None).
        self.mapping: Optional[Tuple[int, int]] = None
        #: Buddy order this frame was allocated at (head frame only).
        self.order = 0

    # ------------------------------------------------------------------
    # refcounting — get_page()/put_page()
    # ------------------------------------------------------------------
    def get(self) -> None:
        """Take a reference (``get_page()``)."""
        if self.count < 0:
            raise AllocatorStateError(f"frame {self.frame} has negative refcount")
        self.count += 1

    def put(self) -> int:
        """Drop a reference (``put_page()``); returns the new count.

        The caller is responsible for freeing the frame back to the
        buddy allocator when the count reaches zero.
        """
        if self.count <= 0:
            raise AllocatorStateError(
                f"put_page on free frame {self.frame} (count={self.count})"
            )
        self.count -= 1
        return self.count

    # ------------------------------------------------------------------
    # flag helpers
    # ------------------------------------------------------------------
    @property
    def allocated(self) -> bool:
        """True while any reference holds this frame (or it is reserved)."""
        return self.count > 0 or bool(self.flags & PageFlag.RESERVED)

    @property
    def locked(self) -> bool:
        return bool(self.flags & PageFlag.LOCKED)

    @property
    def reserved(self) -> bool:
        return bool(self.flags & PageFlag.RESERVED)

    @property
    def in_pagecache(self) -> bool:
        return bool(self.flags & PageFlag.PAGECACHE)

    @property
    def anonymous(self) -> bool:
        return bool(self.flags & PageFlag.ANON)

    def set_flag(self, flag: PageFlag) -> None:
        self.flags |= flag

    def clear_flag(self, flag: PageFlag) -> None:
        self.flags &= ~flag

    def reset_state(self) -> None:
        """Return the descriptor to its pristine free state.

        Called when the frame goes back to the buddy allocator.  Note
        that this clears *metadata only* — the frame's bytes are left
        untouched unless the zero-on-free patch is active, which is
        exactly the behaviour the paper exploits.
        """
        self.flags = PageFlag.NONE
        self.anon_vma = None
        self.mapping = None
        self.order = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Page(frame={self.frame}, count={self.count}, "
            f"flags={self.flags!r}, mapping={self.mapping})"
        )
