"""BIO: file input through the kernel, into process heap buffers.

``BIO_new_file`` + ``BIO_read`` in miniature.  Two key behaviours:

* reading a file populates the *page cache* with its content (that is
  where the persistent PEM copy of Figures 5/6 comes from);
* the bytes handed back to the application land in a *heap buffer* —
  a second, user-space copy of the PEM text.

The integrated solution's modified ``BIO_new_file`` (the paper's
``bss_file.c`` diff) opens read-only files with ``O_NOCACHE``, which a
patched kernel honours by evicting and clearing the cache pages after
the read.

I/O goes through the process's :class:`SyscallInterface` (the fault
injector's syscall sites live there), and like real BIO code the open
retries on EINTR; a hard EIO propagates to the caller, which must fail
the operation in flight.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

from repro.errors import SslError, SyscallInterruptedError
from repro.kernel.syscalls import SyscallInterface
from repro.kernel.vfs import O_NOCACHE, O_RDONLY

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.process import Process

#: How many EINTRs the open loop absorbs before giving up.
EINTR_RETRIES = 3


def _open_retrying(sys: SyscallInterface, path: str, flags: int) -> int:
    for _ in range(EINTR_RETRIES):
        try:
            return sys.open(path, flags)
        except SyscallInterruptedError:
            continue
    return sys.open(path, flags)


def bio_read_file(
    process: "Process", path: str, use_nocache: bool = False
) -> Tuple[int, int]:
    """Read a whole file into a fresh heap buffer.

    Returns ``(heap_address, length)``.  The caller owns the buffer and
    is responsible for freeing — and, if it holds secrets, clearing —
    it, exactly as with a real ``BIO`` read.
    """
    sys = SyscallInterface(process.kernel, process)
    flags = O_RDONLY | (O_NOCACHE if use_nocache else 0)
    keysan = getattr(process.kernel, "keysan", None)
    lf_key = None
    if keysan is not None:
        lf_key = keysan.lifecycle.new_key()
        keysan.note_lifecycle(
            "key-file", lf_key, "open_nocache" if use_nocache else "open_cached"
        )
    fd = _open_retrying(sys, path, flags)
    try:
        data = sys.read_all(fd)
        if keysan is not None:
            keysan.note_lifecycle("key-file", lf_key, "read")
    finally:
        sys.close(fd)
        if keysan is not None:
            keysan.note_lifecycle("key-file", lf_key, "close")
    if not data:
        raise SslError(f"file {path!r} is empty")
    addr = process.heap.malloc(len(data))
    process.mm.write(addr, data)
    return addr, len(data)
