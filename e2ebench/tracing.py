"""Per-layer span tracing from outside the program.

A :class:`Tracer` replaces each function named in :data:`TARGETS` with a
wrapper that records a span around the call, and puts every original
back on :meth:`Tracer.restore`.  Spans nest: a layer's *self time* is its
span's duration minus the time covered by the spans it directly
encloses, so the self times of all layers inside an operation, plus the
operation root's own self time (the work no wrapped layer claims), add
up exactly to the operation's span.

Nothing here runs unless a traced run asks for it: an untraced run never
constructs a tracer, so it calls the program's functions unwrapped.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``module`` + dotted ``qualname`` -> ``layer``."""

    layer: str
    module: str
    qualname: str


#: The layer boundaries the benchmark times, named ``<package>.<function>``.
TARGETS: Tuple[Target, ...] = (
    Target("mem.physmem_init", "repro.mem.physmem", "PhysicalMemory.__init__"),
    Target("kernel.age_memory", "repro.kernel.kernel", "Kernel.age_memory"),
    Target("core.simulation_init", "repro.core.simulation", "Simulation.__init__"),
    Target("crypto.key_material", "repro.crypto.keycorpus", "key_material"),
    Target("kernel.fork", "repro.kernel.kernel", "Kernel.fork"),
    Target("kernel.exec_replace", "repro.kernel.kernel", "Kernel.exec_replace"),
    Target("kernel.exit_process", "repro.kernel.kernel", "Kernel.exit_process"),
    Target("ssl.d2i_privatekey", "repro.ssl.d2i", "d2i_privatekey"),
    Target("ssl.rsa_private_operation", "repro.ssl.engine", "rsa_private_operation"),
    Target("core.rsa_memory_align", "repro.core.memory_align", "rsa_memory_align"),
    Target("apps.open_connection", "repro.apps.sshd", "OpenSSHServer.open_connection"),
    Target("apps.transfer", "repro.apps.sshd", "SshConnection.transfer"),
    Target("apps.handle_request", "repro.apps.httpd", "ApacheServer.handle_request"),
    Target("kernel.ntty_dump", "repro.kernel.tty", "NttyVulnerability.dump"),
    Target("attacks.count_in_segments", "repro.attacks.keysearch",
           "KeyPatternSet.count_in_segments"),
    Target("kernel.mkdir", "repro.kernel.vfs", "Vfs.mkdir"),
    Target("attacks.count_in", "repro.attacks.keysearch", "KeyPatternSet.count_in"),
    Target("attacks.scan", "repro.attacks.scanner", "MemoryScanner.scan"),
    Target("sanitizer.on_write", "repro.sanitizer.keysan", "KeySan.on_write"),
    Target("sanitizer.on_frames_freed", "repro.sanitizer.keysan",
           "KeySan.on_frames_freed"),
    Target("sanitizer.report", "repro.sanitizer.keysan", "KeySan.report"),
    Target("sanitizer.cross_check", "repro.sanitizer.report", "TaintReport.cross_check"),
    Target("analysis.ir_load", "repro.analysis.ir.project", "Project.load"),
    Target("analysis.keylint", "repro.analysis.lint", "lint_file"),
    Target("analysis.keyflow", "repro.analysis.keyflow", "analyze"),
    Target("analysis.keystate", "repro.analysis.keystate", "analyze"),
    Target("analysis.keycount", "repro.analysis.keycount", "analyze"),
    Target("analysis.keyrecon", "repro.analysis.keyrecon", "analyze"),
    Target("analysis.keyspan", "repro.analysis.keyspan", "analyze"),
    Target("analysis.sarif", "repro.analysis.runall", "AnalyzeResult.to_sarif"),
)

#: Layer names of the roots the runner opens around each measured step;
#: their self time is the part of a step no wrapped layer accounts for.
ROOT_LAYERS = ("op", "read")


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(
        self,
        targets: Tuple[Target, ...] = TARGETS,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.targets = targets
        self.clock = clock
        #: layer -> accumulated self time in seconds.
        self.self_s: Dict[str, float] = {}
        #: Open spans, innermost last: ``[start, time covered by children]``.
        self._stack: List[List[float]] = []
        #: ``(owner, attribute, original)`` for every replaced function.
        self._patched: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def enter(self) -> None:
        self._stack.append([self.clock(), 0.0])

    def exit(self, layer: str) -> float:
        """Close the innermost span as ``layer``; returns its duration."""
        start, covered = self._stack.pop()
        duration = self.clock() - start
        self.self_s[layer] = self.self_s.get(layer, 0.0) + duration - covered
        if self._stack:
            self._stack[-1][1] += duration
        return duration

    def reset(self) -> None:
        """Forget accumulated self times (wrappers stay installed)."""
        self.self_s = {}

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def _wrap(self, layer: str, function: Callable) -> Callable:
        @functools.wraps(function)
        def traced(*args, **kwargs):
            self.enter()
            try:
                return function(*args, **kwargs)
            finally:
                self.exit(layer)

        return traced

    def install(self) -> None:
        """Wrap every target wherever the program can reach it.

        Methods (class methods too) are replaced on their class.  A
        module-level function is
        replaced in the module named and in every loaded ``repro`` module
        that holds it under the same name.
        """
        if self._patched:
            raise RuntimeError("tracer is already installed")
        for target in self.targets:
            module = importlib.import_module(target.module)
            *owner_path, name = target.qualname.split(".")
            owner: object = module
            for part in owner_path:
                owner = getattr(owner, part)
            original = vars(owner)[name]
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(target.layer, original.__func__))
            else:
                wrapped = self._wrap(target.layer, original)
            owners = [owner]
            if not owner_path:
                owners += [
                    loaded for loaded_name, loaded in sorted(sys.modules.items())
                    if loaded_name.startswith("repro.") and loaded is not module
                    and vars(loaded).get(name) is original
                ]
            for holder in owners:
                self._patched.append((holder, name, original))
                setattr(holder, name, wrapped)

    def restore(self) -> None:
        """Put every original function back, newest patch first."""
        while self._patched:
            holder, name, original = self._patched.pop()
            setattr(holder, name, original)
