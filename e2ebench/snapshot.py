#!/usr/bin/env python3
"""The pinned input of the ``analyze`` workload.

``repro-src.tar.gz`` beside this file is a snapshot of ``src/repro``'s
Python sources.  The workload analyses the snapshot, not the live tree,
so a change that adds or edits source does not change the workload's
input; only a change to the analysis itself moves its figures.

    python3 e2ebench/snapshot.py     # re-pin from the live tree

Re-pinning changes the workload: update :data:`PINNED_FILES` and
:data:`PINNED_FUNCTIONS` to the counts it prints.
"""

from __future__ import annotations

import atexit
import functools
import gzip
import io
import shutil
import sys
import tarfile
import tempfile
from pathlib import Path, PurePosixPath

HERE = Path(__file__).resolve().parent
ARCHIVE = HERE / "repro-src.tar.gz"
LIVE_TREE = HERE.parent / "src" / "repro"
#: Scratch space for extracted snapshots, inside the checkout.
WORKSPACE = HERE.parent / ".e2ebench_work"

#: What the pinned snapshot holds; set-up refuses a snapshot that differs.
PINNED_FILES = 113
PINNED_FUNCTIONS = 997


def pin(source: Path = LIVE_TREE, archive: Path = ARCHIVE) -> int:
    """Write every ``*.py`` under ``source`` to ``archive`` as
    ``repro/<path>``, byte-identically for identical sources."""
    paths = sorted(source.rglob("*.py"))
    with open(archive, "wb") as raw, \
            gzip.GzipFile(filename="", fileobj=raw, mode="wb", mtime=0) as packed, \
            tarfile.open(fileobj=packed, mode="w", format=tarfile.USTAR_FORMAT) as tar:
        for path in paths:
            data = path.read_bytes()
            info = tarfile.TarInfo(f"repro/{path.relative_to(source).as_posix()}")
            info.size, info.mode, info.mtime = len(data), 0o644, 0
            tar.addfile(info, io.BytesIO(data))
    return len(paths)


def extract(dest: Path, archive: Path = ARCHIVE) -> Path:
    """Unpack the snapshot under ``dest``; returns its ``repro`` root."""
    with tarfile.open(archive, "r:gz") as tar:
        for member in tar.getmembers():
            name = PurePosixPath(member.name)
            if not member.isfile() or name.is_absolute() or ".." in name.parts:
                raise ValueError(f"unexpected snapshot member {member.name!r}")
            target = dest.joinpath(*name.parts)
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(tar.extractfile(member).read())
    return dest / "repro"


@functools.lru_cache(maxsize=None)
def unpacked() -> Path:
    """The snapshot, unpacked once per process under :data:`WORKSPACE`
    and removed when the process exits; returns its ``repro`` root."""
    WORKSPACE.mkdir(exist_ok=True)
    dest = Path(tempfile.mkdtemp(prefix="snapshot-", dir=WORKSPACE))
    atexit.register(shutil.rmtree, dest, True)
    return extract(dest)


def main() -> int:
    files = pin()
    sys.path.insert(0, str(LIVE_TREE.parent))
    from repro.analysis.ir.project import Project

    project = Project.load([LIVE_TREE])
    print(f"pinned {files} files, {len(project.functions)} functions to {ARCHIVE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
