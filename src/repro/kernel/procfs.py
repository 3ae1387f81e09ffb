"""A /proc-like pseudo-filesystem for dynamic kernel entries.

The paper's scanmemory LKM creates a ``/proc`` entry ("``sshmem``" /
"``apachemem``") whose *read* triggers a full memory scan and returns
the report text.  :class:`ProcFs` reproduces that interaction surface:
entries are zero-argument callables producing bytes, evaluated afresh
on every ``open``; their content is never cached (real procfs reads
bypass the page cache too).
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.errors import FileNotFoundError_
from repro.kernel.fs import SimFile, SimFileSystem


class ProcFile(SimFile):
    """A pseudo-file with dynamically generated, uncacheable content."""

    #: The page cache skips files marked transient.
    transient = True


class ProcFs(SimFileSystem):
    """Filesystem of callable-backed entries, mounted at /proc."""

    def __init__(self) -> None:
        super().__init__(fstype="ext2", label="proc", preload_cache=False)
        self._entries: Dict[str, Callable[[], bytes]] = {}

    def register(self, name: str, generator: Callable[[], bytes]) -> None:
        """Create ``/proc/<name>`` (``create_proc_entry``)."""
        if "/" in name or not name:
            raise ValueError(f"bad proc entry name {name!r}")
        self._entries[name] = generator

    def unregister(self, name: str) -> None:
        """Remove an entry (``remove_proc_entry``)."""
        try:
            del self._entries[name]
        except KeyError:
            raise FileNotFoundError_(f"no proc entry {name!r}") from None

    # ------------------------------------------------------------------
    # SimFileSystem surface
    # ------------------------------------------------------------------
    def lookup(self, path: str) -> SimFile:
        rel = self._normalize(path)
        generator = self._entries.get(rel)
        if generator is None:
            raise FileNotFoundError_(f"no proc entry {path!r}")
        # Fresh content per lookup: reading the entry *is* the action.
        return ProcFile(rel, generator(), next(self._file_ids))

    def exists(self, path: str) -> bool:
        return self._normalize(path) in self._entries

    def list_dir(self, path: str = "") -> List[str]:
        if self._normalize(path):
            raise FileNotFoundError_("proc has no subdirectories")
        return sorted(self._entries)
