"""VFS layer: mounts, descriptors and the ``O_NOCACHE`` open flag.

The integrated library–kernel solution introduces ``O_NOCACHE``
(value ``02000000``, from the paper's ``fcntl.h`` diff).  When the
kernel supports it and a file opened with it is read, the read path
evicts and clears the file's page-cache pages immediately afterwards —
so the PEM-encoded private key never lingers in kernel memory.  On an
unpatched kernel the flag is silently ignored, just as unknown open
flags are on real Linux, which lets a patched OpenSSL run unmodified on
stock kernels.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.errors import (
    BadFileDescriptorError,
    FileNotFoundError_,
    IsADirectoryError_,
)
from repro.kernel.fs import SimFile, SimFileSystem

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.kernel import Kernel
    from repro.kernel.process import Process

# open(2) flag values (x86).
O_RDONLY = 0o0
O_WRONLY = 0o1
O_RDWR = 0o2
O_CREAT = 0o100
#: The paper's new flag: evict the file from the page cache after reads.
O_NOCACHE = 0o2000000


class OpenFile:
    """A file-table entry: file + flags + offset."""

    def __init__(self, file: SimFile, fs: SimFileSystem, flags: int) -> None:
        self.file = file
        self.fs = fs
        self.flags = flags
        self.pos = 0
        self.closed = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"OpenFile({self.file.path!r}, flags={self.flags:#o}, pos={self.pos})"


class Vfs:
    """Mount table + the open/read/write/close surface."""

    def __init__(self, kernel: "Kernel") -> None:
        self.kernel = kernel
        self._mounts: Dict[str, SimFileSystem] = {}
        #: File ids of every filesystem this kernel mounts; the page
        #: cache keys by them, so they are unique per kernel.
        self._file_ids = itertools.count(1)

    # ------------------------------------------------------------------
    # mounts
    # ------------------------------------------------------------------
    def mount(self, mountpoint: str, fs: SimFileSystem) -> None:
        point = "/" + mountpoint.strip("/")
        if point in self._mounts:
            raise FileNotFoundError_(f"{point!r} already mounted")
        self._mounts[point] = fs
        fs.number_files(self._file_ids)
        if fs.preload_cache:
            # Reiser-like eager caching: file data is resident in the
            # page cache from mount time (paper §3.2 observation (1)).
            for file in fs.files.values():
                self.kernel.pagecache.preload(file)

    def mounts(self) -> Dict[str, SimFileSystem]:
        return dict(self._mounts)

    def resolve(self, path: str) -> Tuple[SimFileSystem, str]:
        """Longest-prefix mount match; returns ``(fs, relative_path)``."""
        if not path.startswith("/"):
            raise FileNotFoundError_(f"path must be absolute: {path!r}")
        best: Optional[str] = None
        for point in self._mounts:
            if path == point or path.startswith(point.rstrip("/") + "/"):
                if best is None or len(point) > len(best):
                    best = point
        if best is None:
            raise FileNotFoundError_(f"no filesystem mounted for {path!r}")
        rel = path[len(best) :].strip("/")
        return self._mounts[best], rel

    # ------------------------------------------------------------------
    # file operations
    # ------------------------------------------------------------------
    def open(self, process: "Process", path: str, flags: int = O_RDONLY) -> int:
        fs, rel = self.resolve(path)
        if rel in getattr(fs, "dirs", ()) and rel not in getattr(fs, "files", {}):
            raise IsADirectoryError_(f"open of directory {path!r}")
        if not fs.exists(rel) and flags & O_CREAT:
            fs.create_file(rel, b"")
        file = fs.lookup(rel)
        of = OpenFile(file, fs, flags)
        self.kernel.clock.charge_syscall()
        return process.install_fd(of)

    def read(self, process: "Process", fd: int, length: int) -> bytes:
        of = process.lookup_fd(fd)
        if of.closed:
            raise BadFileDescriptorError(f"read on closed fd {fd}")
        data = self.kernel.pagecache.read(of.file, of.pos, length)
        of.pos += len(data)
        self.kernel.clock.charge_syscall()
        if of.flags & O_NOCACHE and self.kernel.config.o_nocache_supported:
            # The paper's filemap.c patch: remove_from_page_cache +
            # clear_highpage + __free_pages after serving the read.
            self.kernel.pagecache.evict_file(of.file.file_id, clear=True)
        return data

    def read_all(self, process: "Process", fd: int) -> bytes:
        """Read from the current offset to EOF."""
        of = process.lookup_fd(fd)
        return self.read(process, fd, len(of.file.data) - of.pos)

    def write(self, process: "Process", fd: int, data: bytes) -> int:
        of = process.lookup_fd(fd)
        if of.closed:
            raise BadFileDescriptorError(f"write on closed fd {fd}")
        buf = of.file.data
        end = of.pos + len(data)
        if end > len(buf):
            buf.extend(b"\x00" * (end - len(buf)))
        buf[of.pos : end] = data
        of.pos = end
        # Keep the cache coherent the cheap way: drop stale pages.
        self.kernel.pagecache.invalidate(of.file.file_id)
        self.kernel.clock.charge_syscall()
        return len(data)

    def close(self, process: "Process", fd: int) -> None:
        of = process.remove_fd(fd)
        of.closed = True
        self.kernel.clock.charge_syscall()

    # ------------------------------------------------------------------
    # directories and convenience
    # ------------------------------------------------------------------
    def mkdir(self, path: str) -> None:
        fs, rel = self.resolve(path)
        fs.mkdir(self.kernel, rel)

    def create_file(self, path: str, data: bytes) -> SimFile:
        fs, rel = self.resolve(path)
        return fs.create_file(rel, data)

    def lookup(self, path: str) -> SimFile:
        fs, rel = self.resolve(path)
        return fs.lookup(rel)

    def exists(self, path: str) -> bool:
        try:
            fs, rel = self.resolve(path)
        except FileNotFoundError_:
            return False
        return fs.exists(rel)

    def list_dir(self, path: str) -> List[str]:
        fs, rel = self.resolve(path)
        return fs.list_dir(rel)
