"""In-memory filesystems, including the leaky ext2.

Two behaviours from the paper live here:

* **The ext2 ``make_empty`` leak** ([17], Arkoon advisory, fixed in
  2.6.12/2.4.30): creating a directory writes a *whole* uninitialised
  block buffer to disk after filling in only the ``.``/``..`` entries,
  leaking up to 4072 bytes of stale kernel memory per directory.  We
  reproduce the exact mechanism: the directory block is a freshly
  allocated — and deliberately *not cleared* — page frame whose full
  content lands on the block device image an attacker can read (the
  paper's 16 MB USB stick).

* **Eager caching** — the paper stores the PEM file on Reiser and
  finds it in the page cache *before the server even starts*; storing
  it on ext2 avoids that.  Filesystems here carry a ``preload_cache``
  personality flag reproducing the difference.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import TYPE_CHECKING, Dict, List, Optional, Set

from repro.errors import (
    FileExistsError_,
    FileNotFoundError_,
    NoSpaceError,
    NotADirectoryError_,
)
from repro.mem.page import PageFlag

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.kernel import Kernel

#: Bytes of the directory block actually initialised by make_empty:
#: the '.' and '..' entries.  The remaining 4096 - 24 = 4072 bytes of
#: the block buffer are written to disk uninitialised.
DIR_HEADER_SIZE = 24

#: Kernel version in which the ext2 leak was fixed.
EXT2_LEAK_FIXED_IN = (2, 6, 12)

class SimFile:
    """One regular file: a path plus its on-disk bytes."""

    def __init__(self, path: str, data: bytes, file_id: int) -> None:
        self.file_id = file_id
        self.path = path
        self.data = bytearray(data)

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimFile(id={self.file_id}, path={self.path!r}, size={len(self.data)})"


class SimFileSystem:
    """An in-memory filesystem with a block-device image behind it."""

    def __init__(
        self,
        fstype: str = "ext2",
        label: str = "",
        capacity_blocks: int = 16384,
        preload_cache: Optional[bool] = None,
    ) -> None:
        if fstype not in ("ext2", "reiser", "vfat"):
            raise ValueError(f"unknown fstype {fstype!r}")
        self.fstype = fstype
        self.label = label or fstype
        self.capacity_blocks = capacity_blocks
        #: Reiser aggressively caches; ext2/vfat do not (paper §5.3).
        self.preload_cache = (
            preload_cache if preload_cache is not None else fstype == "reiser"
        )
        self.files: Dict[str, SimFile] = {}
        self.dirs: Set[str] = {""}
        #: The raw block-device image — what a removed USB stick holds.
        self.block_image = bytearray()
        self.dirs_created = 0
        #: Buffer cache: directory-block buffers held in kernel memory
        #: for a while after the write, as the real buffer cache does.
        #: Holding them is what makes successive mkdirs pull *distinct*
        #: free frames instead of recycling one hot frame forever.
        self.buffer_cache_cap = 512
        self._buffer_frames: deque = deque()
        #: Where file ids come from: this filesystem's own counter until
        #: it is mounted, then the mounting kernel's (:meth:`number_files`).
        self._file_ids = itertools.count(1)

    # ------------------------------------------------------------------
    # path helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _normalize(path: str) -> str:
        return path.strip("/")

    def _parent_of(self, rel: str) -> str:
        return rel.rsplit("/", 1)[0] if "/" in rel else ""

    def _require_parent_dir(self, rel: str) -> None:
        parent = self._parent_of(rel)
        if parent not in self.dirs:
            raise NotADirectoryError_(f"parent directory of {rel!r} does not exist")

    # ------------------------------------------------------------------
    # regular files
    # ------------------------------------------------------------------
    def create_file(self, path: str, data: bytes) -> SimFile:
        rel = self._normalize(path)
        if rel in self.files or rel in self.dirs:
            raise FileExistsError_(f"{path!r} already exists")
        self._require_parent_dir(rel)
        if self._blocks_used() >= self.capacity_blocks:
            raise NoSpaceError(f"filesystem {self.label!r} is full")
        file = SimFile(rel, data, next(self._file_ids))
        self.files[rel] = file
        return file

    def number_files(self, ids: "itertools.count[int]") -> None:
        """Take file ids from ``ids``, a kernel's counter, renumbering
        the files created before the mount in creation order.  Ids stay
        unique across every filesystem one kernel mounts, and the same
        machine numbers its files the same way in any process."""
        if ids is self._file_ids:
            return
        self._file_ids = ids
        for file in self.files.values():
            file.file_id = next(ids)

    def lookup(self, path: str) -> SimFile:
        rel = self._normalize(path)
        try:
            return self.files[rel]
        except KeyError:
            raise FileNotFoundError_(f"no such file: {path!r}") from None

    def exists(self, path: str) -> bool:
        rel = self._normalize(path)
        return rel in self.files or rel in self.dirs

    def unlink(self, path: str) -> None:
        rel = self._normalize(path)
        if rel not in self.files:
            raise FileNotFoundError_(f"no such file: {path!r}")
        del self.files[rel]

    def write_file(self, path: str, data: bytes) -> SimFile:
        """Replace a file's content (create if missing)."""
        rel = self._normalize(path)
        if rel in self.files:
            self.files[rel].data = bytearray(data)
            return self.files[rel]
        return self.create_file(path, data)

    def _blocks_used(self) -> int:
        return len(self.files) + len(self.dirs)

    # ------------------------------------------------------------------
    # the vulnerable mkdir
    # ------------------------------------------------------------------
    def leaks_on_mkdir(self, kernel: "Kernel") -> bool:
        """True when this FS + kernel combination has the [17] bug."""
        return self.fstype == "ext2" and kernel.config.version < EXT2_LEAK_FIXED_IN

    def mkdir(self, kernel: "Kernel", path: str) -> bytes:
        """Create a directory; returns the bytes written to disk for
        its first block.

        On a vulnerable kernel the block buffer is an uncleared page
        frame, so everything past the 24-byte header is stale kernel
        memory — the attack reads it straight off :attr:`block_image`.
        On a fixed kernel (or with zero-on-free active, which leaves no
        stale bytes in free frames to begin with) the tail is zeros.
        """
        rel = self._normalize(path)
        if rel in self.dirs or rel in self.files:
            raise FileExistsError_(f"{path!r} already exists")
        self._require_parent_dir(rel)
        if self._blocks_used() >= self.capacity_blocks:
            raise NoSpaceError(f"filesystem {self.label!r} is full")

        page_size = kernel.physmem.page_size
        frame = kernel.buddy.alloc_pages(0, PageFlag.KERNEL_BUFFER)
        header = self._dir_header(rel)
        if not self.leaks_on_mkdir(kernel):
            # Fixed ext2 (>= 2.6.12) memsets the block before use.
            kernel.physmem.clear_frame(frame)
            kernel.clock.charge_page_clear()
        kernel.physmem.write(frame * page_size, header)
        block = kernel.physmem.read_frame(frame)
        self.block_image += block
        kernel.clock.charge_disk_read()  # the block write

        # Hold the buffer in the cache; release the oldest beyond cap.
        self._buffer_frames.append(frame)
        while len(self._buffer_frames) > self.buffer_cache_cap:
            kernel.buddy.free_pages(self._buffer_frames.popleft())

        self.dirs.add(rel)
        self.dirs_created += 1
        return block

    def drop_buffers(self, kernel: "Kernel") -> int:
        """Flush the buffer cache (unmount); returns frames released."""
        released = 0
        while self._buffer_frames:
            kernel.buddy.free_pages(self._buffer_frames.popleft())
            released += 1
        return released

    @staticmethod
    def _dir_header(rel: str) -> bytes:
        """A stand-in for the '.' and '..' ext2 dirents."""
        tag = rel.encode("utf-8", errors="replace")[:8].ljust(8, b"\x00")
        return b"\x01.\x00\x00\x02..\x00" + tag + b"\x00" * (DIR_HEADER_SIZE - 16)

    def read_block_image(self) -> bytes:
        """What the attacker sees after unplugging the device."""
        return bytes(self.block_image)

    def list_dir(self, path: str = "") -> List[str]:
        rel = self._normalize(path)
        if rel not in self.dirs:
            raise FileNotFoundError_(f"no such directory: {path!r}")
        prefix = rel + "/" if rel else ""
        names = set()
        for candidate in list(self.files) + list(self.dirs):
            if candidate and candidate.startswith(prefix):
                remainder = candidate[len(prefix) :]
                names.add(remainder.split("/", 1)[0])
        return sorted(names)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SimFileSystem({self.fstype!r}, label={self.label!r}, "
            f"files={len(self.files)}, dirs={len(self.dirs)})"
        )
