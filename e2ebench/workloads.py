"""The benchmark's workloads.

Each workload turns the benchmark seed into a set-up and an endless,
balanced stream of :class:`Step`\\ s.  A step is either an *operation*
(one sweep run, one session, one analysis of a file group) or a *read*
(an incremental scan, a taint audit, a merged SARIF log) and carries an
optional *check*, the correctness oracle that the runner calls outside
the timed region.

The streams are built from fixed-composition blocks: every block holds
the same mix of step costs in a seed-shuffled order, and the runner only
stops on a block boundary, so a run's medians never depend on where in
the mix the clock ran out.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from e2ebench import snapshot
from repro.analysis import experiments
from repro.analysis.ir.project import Project, discover_files
from repro.analysis.parallel import RunSpec, run_specs
from repro.analysis.perfbench import SCP_FILE_SIZES, SIEGE_RESPONSE_BYTES
from repro.analysis.runall import run_all
from repro.analysis.sarif import validate_sarif
from repro.apps.sshd import OpenSSHServer
from repro.attacks.scanner import MemoryScanner
from repro.core.protection import ProtectionLevel
from repro.core.simulation import Simulation, SimulationConfig
from repro.crypto import keycorpus
from repro.crypto.randsrc import DeterministicRandom

#: ``repro sweep --scale quick`` machine parameters.
SWEEP_KEY_BITS = 1024
SWEEP_MEMORY_MB = {"ntty": 32, "ext2": 16}

#: The long-lived machines of ``serve`` / ``taint``: (server, level).
SERVE_MACHINES = (
    ("openssh", ProtectionLevel.NONE),
    ("openssh", ProtectionLevel.INTEGRATED),
    ("apache", ProtectionLevel.NONE),
    ("apache", ProtectionLevel.INTEGRATED),
)
#: Concurrent sessions each server keeps open (the paper's 20).
SERVE_CONCURRENCY = 20
#: One read (scan or audit) after this many sessions.
SESSIONS_PER_READ = 20
#: Every ``SCAN_CHECK_EVERY``-th incremental scan is compared with a full one.
SCAN_CHECK_EVERY = 8


@dataclass
class Step:
    """One timed unit of a workload's stream."""

    #: ``"op"`` or ``"read"``.
    kind: str
    #: What the step does, e.g. ``"openssh/none scp 4096"``.
    label: str
    #: The class of steps whose costs are alike: a machine, a grid cell.
    stratum: str
    run: Callable[[], object]
    #: Oracle over ``run``'s result; ``False`` counts the step as failed.
    check: Optional[Callable[[object], bool]] = None
    #: True on the last step of a fixed-composition block.
    block_end: bool = False


def naive_count(data: bytes, pattern: bytes) -> int:
    """Overlapping occurrences of ``pattern`` in ``data``, one find at a time."""
    count, start = 0, data.find(pattern)
    while start != -1:
        count += 1
        start = data.find(pattern, start + 1)
    return count


#: The ``SimClock.spent`` categories the exact counts report.
CLOCK_CATEGORIES = ("page_clear", "page_copy", "rsa_private", "network",
                    "fork", "exec", "disk")

#: Every exact counter, in report order.
COUNTER_NAMES = (
    "mem.alloc_pages", "mem.free_pages", "mem.cleared_frames",
    "kernel.pagecache_misses", "crypto.keys_generated",
    "ssl.rsa_private_operations", "apps.sessions",
    "analysis.functions", "analysis.findings",
) + tuple(f"clock.{category}_us" for category in CLOCK_CATEGORIES)


def machine_counters(sim: Simulation) -> Dict[str, int]:
    """Exact work counters of one machine, from its public state."""
    kernel = sim.kernel
    spent = kernel.clock.spent
    server = sim.server
    if isinstance(server, OpenSSHServer):
        sessions = server.total_connections
    else:
        sessions = server.total_requests
    counters = {
        "mem.alloc_pages": kernel.buddy.alloc_count,
        "mem.free_pages": kernel.buddy.free_count,
        "mem.cleared_frames": kernel.buddy.cleared_frames,
        "kernel.pagecache_misses": kernel.pagecache.misses,
        "ssl.rsa_private_operations": round(
            spent.get("rsa_private", 0.0) / kernel.clock.costs.rsa_private_op_us
        ),
        "apps.sessions": sessions,
    }
    for category in CLOCK_CATEGORIES:
        counters[f"clock.{category}_us"] = round(spent.get(category, 0.0))
    return counters


def add_counters(total: Dict[str, int], more: Dict[str, int]) -> None:
    for name, value in more.items():
        total[name] = total.get(name, 0) + value


class Workload:
    """Seed -> set-up -> stream of steps, plus exact counters."""

    name = ""
    #: The op-latency percentile reported as ``op_tail_ms``: the highest
    #: one with at least ten samples beyond it in every run.
    tail_percentile = 90.0
    #: Exact counters cover this many blocks from the start of the stream.
    exact_blocks = 4
    #: Collect garbage after every step, outside the timed region.
    collect_garbage = False

    def __init__(self, seed: int) -> None:
        self.seed = seed
        #: ``(stratum, seconds)`` of reads timed inside operations
        #: (sweep's attacks).
        self.inner_reads: List[Tuple[str, float]] = []

    def setup(self) -> None:
        raise NotImplementedError

    def steps(self) -> Iterator[Step]:
        raise NotImplementedError

    def machine_totals(self) -> Dict[str, int]:
        """:func:`machine_counters` summed over every machine so far."""
        raise NotImplementedError

    def counters(self) -> Dict[str, int]:
        """Cumulative exact counters of the work done so far."""
        totals = self.machine_totals()
        totals["crypto.keys_generated"] = keycorpus.cache_stats()["misses"]
        return totals


# ----------------------------------------------------------------------
# sweep: fresh machines, the paper's attack grids
# ----------------------------------------------------------------------
def sweep_cells() -> List[Tuple[str, int, int]]:
    """The quick grids' cells as ``(kind, conns, dirs)``."""
    cells = [("ntty", conns, 0) for conns in experiments.QUICK_NTTY_CONNECTIONS]
    cells += [
        ("ext2", conns, dirs)
        for conns in experiments.QUICK_EXT2_CONNECTIONS
        for dirs in experiments.QUICK_EXT2_DIRECTORIES
    ]
    return cells


def cell_name(spec: RunSpec) -> str:
    return f"{spec.kind} n={spec.conns} d={spec.dirs}"


def attack_name(spec: RunSpec) -> str:
    """The stratum of a run's attack.  What an attack costs follows what
    it discloses - a random window for ntty, the directory count for
    ext2 - not the connection count, so cells that differ only in
    connections share a stratum and its median rests on more samples."""
    return "ntty" if spec.kind == "ntty" else f"ext2 d={spec.dirs}"


class SweepWorkload(Workload):
    """One fresh machine per operation, as ``repro sweep`` runs them.

    A block holds every quick-grid cell once, half of them on each
    server.  Each cell swaps servers from one block to the next and steps
    through the six levels, in a seed-chosen order, every second block,
    so each pair of blocks runs every cell on both servers and twelve
    blocks cover the whole grid.  Every spec is new (``rep`` is the block number), so each run
    pays its own cold keygen, as a user's first sweep does.  Runs go
    through ``run_specs`` and the program's own ``execute_spec``; an
    :class:`AttackRecorder` lends the oracle the machine and the attack.

    A dead machine is a web of reference cycles that only the cyclic
    collector frees, tens of MB at a time.  Collecting after every run
    keeps that cost out of whichever later run the collector happens to
    interrupt, and keeps peak RSS from depending on when it ran.
    """

    name = "sweep"
    tail_percentile = 75.0
    exact_blocks = 1
    collect_garbage = True

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self._totals: Dict[str, int] = {}
        #: The attacks recorded during the last operation.
        self._attacks: List[Tuple[Simulation, object, float]] = []

    def specs(self) -> Iterator[List[RunSpec]]:
        """Blocks of specs: every cell once, machines rotating."""
        cells = sweep_cells()
        rng = random.Random(f"sweep|{self.seed}")
        servers = ["openssh", "apache"]
        rng.shuffle(servers)
        levels = [level.value for level in ProtectionLevel]
        rng.shuffle(levels)
        block = 0
        while True:
            specs = [
                RunSpec(kind, servers[(index + block) % 2],
                        levels[(index + block // 2) % len(levels)],
                        conns, dirs, block, self.seed,
                        SWEEP_MEMORY_MB[kind], SWEEP_KEY_BITS)
                for index, (kind, conns, dirs) in enumerate(cells)
            ]
            rng.shuffle(specs)
            yield specs
            block += 1

    def setup(self) -> None:
        """Warm the process with one fixed run of each kind on a cold key
        corpus.

        The warm-up machines do not depend on the seed, so every run's
        set-up does the same work."""
        warmups = [
            RunSpec("ntty", "openssh", ProtectionLevel.NONE.value, 10, 0,
                    0, 0, SWEEP_MEMORY_MB["ntty"], SWEEP_KEY_BITS),
            RunSpec("ext2", "openssh", ProtectionLevel.NONE.value,
                    experiments.QUICK_EXT2_CONNECTIONS[0],
                    experiments.QUICK_EXT2_DIRECTORIES[0],
                    0, 0, SWEEP_MEMORY_MB["ext2"], SWEEP_KEY_BITS),
        ]
        outcomes, failures = run_specs(warmups, workers=1)
        if failures or None in outcomes:
            raise RuntimeError(f"sweep warm-up runs failed: {failures}")

    def run_spec(self, spec: RunSpec):
        """One run through ``run_specs``, recording its attack for the
        oracle and timing the attack (disclosure + search) as the read."""
        with AttackRecorder() as recorder:
            result = run_specs([spec], workers=1)
        self._attacks = recorder.calls
        for _, _, seconds in recorder.calls:
            self.inner_reads.append((attack_name(spec), seconds))
        return result

    def steps(self) -> Iterator[Step]:
        for block in self.specs():
            for index, spec in enumerate(block):
                yield Step(
                    "op",
                    f"{cell_name(spec)} {spec.server}/{spec.level} rep={spec.rep}",
                    cell_name(spec),
                    lambda spec=spec: self.run_spec(spec),
                    self._check,
                    block_end=index == len(block) - 1,
                )

    def _check(self, result) -> bool:
        outcomes, failures = result
        attacks, self._attacks = self._attacks, []
        if failures or outcomes[0] is None or len(attacks) != 1:
            return False
        sim, attack, _ = attacks[0]
        add_counters(self._totals, machine_counters(sim))
        return recount(sim, outcomes[0].spec.kind, attack)

    def machine_totals(self) -> Dict[str, int]:
        return dict(self._totals)


class AttackRecorder:
    """While active, records every exact attack a :class:`Simulation`
    runs as ``(machine, result, seconds)``, and restores the methods on
    exit."""

    METHODS = ("run_ntty_attack", "run_ext2_attack")

    def __init__(self) -> None:
        self.calls: List[Tuple[Simulation, object, float]] = []
        self._saved: Dict[str, Callable] = {}

    def _record(self, method: Callable) -> Callable:
        @functools.wraps(method)
        def recorded(sim, *args, **kwargs):
            started = time.perf_counter()
            attack = method(sim, *args, **kwargs)
            self.calls.append((sim, attack, time.perf_counter() - started))
            return attack

        return recorded

    def __enter__(self) -> "AttackRecorder":
        for name in self.METHODS:
            self._saved[name] = vars(Simulation)[name]
            setattr(Simulation, name, self._record(self._saved[name]))
        return self

    def __exit__(self, *exc_info) -> None:
        for name, method in self._saved.items():
            setattr(Simulation, name, method)
        self._saved.clear()


def recount(sim: Simulation, kind: str, attack) -> bool:
    """Re-derive the attack's disclosed bytes and count every pattern
    with :func:`naive_count`; True when the counts match the attack's."""
    if kind == "ntty":
        # The attack stream is a pure function of the machine seed, so a
        # fresh fork replays the exact dump window.
        rng = DeterministicRandom(sim.config.seed).fork_stream("attack")
        segments = sim.kernel.ntty.dump(rng).segments
    else:
        image = sim.kernel.vfs.mounts()["/mnt/usb"].block_image
        segments = (bytes(image[len(image) - attack.disclosed_bytes:]),)
    if sum(map(len, segments)) != attack.disclosed_bytes:
        return False
    counts = {}
    for name, pattern in sim.patterns.items():
        # Searched segment by segment, plus the bytes around each seam,
        # so the check never holds a second copy of the whole window.
        counts[name] = sum(naive_count(segment, pattern) for segment in segments)
        tail = len(pattern) - 1
        for left, right in zip(segments, segments[1:]):
            seam = left[-tail:] + right[:tail]
            counts[name] += naive_count(seam, pattern)
    return counts == attack.counts


# ----------------------------------------------------------------------
# serve / taint: long-lived machines under session traffic
# ----------------------------------------------------------------------
class ServeWorkload(Workload):
    """Round-robin scp sessions and Siege requests over four machines,
    one incremental scan every :data:`SESSIONS_PER_READ` sessions.

    The machines are the same for every seed, like a fixed test fixture:
    a machine's scan cost follows the number of key copies its history
    left in RAM, which differs several-fold from one machine seed to
    another.  The seed chooses the traffic: the machines' turn order and
    the order of the scp file sizes.
    """

    name = "serve"
    taint = False

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.sims: List[Simulation] = []
        self._reads = 0

    def setup(self) -> None:
        self.sims = []
        for server, level in SERVE_MACHINES:
            digest = hashlib.sha256(
                f"e2ebench-serve|{server}|{level.value}".encode("ascii")
            ).digest()
            sim = Simulation(
                SimulationConfig(
                    server=server, level=level,
                    seed=int.from_bytes(digest[:8], "big"), taint=self.taint,
                )
            )
            sim.start_server()
            if server == "openssh":
                sim.server.set_concurrency(SERVE_CONCURRENCY)
            else:
                sim.server.ensure_pool(SERVE_CONCURRENCY)
            sim.scan(incremental=True)  # primes the incremental cache
            self.sims.append(sim)

    def session(self, sim: Simulation, size: int) -> None:
        server = sim.server
        if isinstance(server, OpenSSHServer):
            connection = server.connections[0]
            connection.transfer(size, server.rng)
            connection.close()
            server.open_connection()
        else:
            server.handle_request(SIEGE_RESPONSE_BYTES)

    def steps(self) -> Iterator[Step]:
        rng = random.Random(f"serve-order|{self.seed}")
        order = list(range(len(self.sims)))
        rng.shuffle(order)
        sizes = list(SCP_FILE_SIZES)
        rng.shuffle(sizes)
        session = 0
        while True:
            for _ in range(SESSIONS_PER_READ):
                sim = self.sims[order[session % len(order)]]
                size = sizes[(session // len(order)) % len(sizes)]
                machine = machine_name(sim)
                label = machine + (
                    f" scp {size}" if sim.config.server == "openssh" else " request"
                )
                yield Step("op", label, machine,
                           lambda sim=sim, size=size: self.session(sim, size))
                session += 1
            sim = self.sims[order[self._reads % len(order)]]
            self._reads += 1
            yield self.read_step(sim, self._reads % SCAN_CHECK_EVERY == 0)

    def read_step(self, sim: Simulation, checked: bool) -> Step:
        check = (lambda report: report.matches == full_scan(sim).matches) if checked else None
        return Step("read", f"{machine_name(sim)} scan", machine_name(sim),
                    lambda: sim.scan(incremental=True), check, block_end=True)

    def machine_totals(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for sim in self.sims:
            add_counters(totals, machine_counters(sim))
        return totals


def machine_name(sim: Simulation) -> str:
    return f"{sim.config.server}/{sim.config.level.value}"


def full_scan(sim: Simulation):
    """A from-scratch scan by an independent scanner (no cached state)."""
    return MemoryScanner(sim.kernel, sim.patterns).scan()


class TaintWorkload(ServeWorkload):
    """``serve``'s machines and stream under KeySan; the read is an audit."""

    name = "taint"
    taint = True

    def read_step(self, sim: Simulation, checked: bool) -> Step:
        def audit():
            return sim.taint_report().cross_check(sim.scan())

        return Step("read", f"{machine_name(sim)} audit", machine_name(sim), audit,
                    lambda check: check.consistent, block_end=True)


# ----------------------------------------------------------------------
# analyze: the static stack over a pinned source snapshot
# ----------------------------------------------------------------------
def file_groups(pairs: List[Tuple[Path, Path]]) -> Dict[str, List[Tuple[Path, Path]]]:
    """Split ``(root, file)`` pairs by package: each subpackage of
    ``analysis`` on its own, the top-level modules and ``hw`` together."""
    groups: Dict[str, List[Tuple[Path, Path]]] = {}
    for root, file_path in pairs:
        parts = file_path.relative_to(root).parts
        if parts[0] == "analysis" and len(parts) > 2:
            name = f"analysis/{parts[1]}"
        elif len(parts) == 1 or parts[0] == "hw":
            name = "top"
        else:
            name = parts[0]
        groups.setdefault(name, []).append((root, file_path))
    return groups


class AnalyzeWorkload(Workload):
    """``repro analyze --format sarif`` over one package at a time.

    Set-up loads the pinned snapshot (:mod:`e2ebench.snapshot`), refuses
    it unless it holds the pinned file and function counts, and warms up
    with one group.  An operation is ``run_all`` - the shared IR
    build and all seven layers - over one package group; its read renders
    that analysis as one merged SARIF document.  A block analyses every
    group once, in a seed-shuffled order.  Garbage is collected between
    steps, outside the timed region, so no analysis pays for an earlier
    one's trees.

    Whole-tree analysis takes seconds, so a run would hold a handful;
    a group takes 60 to 400 ms.  Calls between groups are not resolved,
    so the groups together cost less than the whole tree.
    """

    name = "analyze"
    tail_percentile = 75.0
    exact_blocks = 1
    collect_garbage = True
    warmup_group = "core"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        #: Unpacking is the benchmark's own work, not the program's, so
        #: it happens once per process and outside the timed set-up.
        self.root = snapshot.unpacked()
        self.groups: Dict[str, List[Tuple[Path, Path]]] = {}
        self._result = None
        #: Group -> its first merged SARIF document of the run.
        self._logs: Dict[str, str] = {}
        self._totals: Dict[str, int] = {}

    def setup(self) -> None:
        pairs = discover_files([self.root])
        project = Project.load([self.root], files=pairs)
        found = (len(project.files), len(project.functions))
        if found != (snapshot.PINNED_FILES, snapshot.PINNED_FUNCTIONS):
            raise RuntimeError(
                f"snapshot holds {found[0]} files / {found[1]} functions, pinned "
                f"{snapshot.PINNED_FILES} / {snapshot.PINNED_FUNCTIONS}"
            )
        self.groups = file_groups(pairs)
        run_all(files=self.groups[self.warmup_group]).to_sarif()

    def analyze(self, files: List[Tuple[Path, Path]]):
        self._result = run_all(files=files)
        return self._result

    def sarif_text(self) -> str:
        """The merged log as ``repro analyze --format sarif`` writes it."""
        return json.dumps(self._result.to_sarif(), indent=2) + "\n"

    def steps(self) -> Iterator[Step]:
        rng = random.Random(f"analyze|{self.seed}")
        names = sorted(self.groups)
        while True:
            rng.shuffle(names)
            for index, name in enumerate(names):
                yield Step("op", f"{name} analyze", name,
                           lambda name=name: self.analyze(self.groups[name]),
                           self._count)
                yield Step("read", f"{name} sarif", name, self.sarif_text,
                           lambda text, name=name: self._check(name, text),
                           block_end=index == len(names) - 1)

    def _count(self, result) -> bool:
        findings = len(result.violations) + sum(
            len(report.findings) for report in result.reports.values()
        )
        add_counters(self._totals, {"analysis.functions": result.function_count,
                                    "analysis.findings": findings})
        return True

    def _check(self, name: str, text: str) -> bool:
        """The log is valid SARIF and byte-identical to the group's first."""
        if validate_sarif(json.loads(text)):
            return False
        return self._logs.setdefault(name, text) == text

    def machine_totals(self) -> Dict[str, int]:
        return dict(self._totals)


WORKLOADS: Dict[str, type] = {
    workload.name: workload
    for workload in (SweepWorkload, ServeWorkload, TaintWorkload, AnalyzeWorkload)
}


def make(name: str, seed: int) -> Workload:
    try:
        return WORKLOADS[name](seed)
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r} (choose from {', '.join(WORKLOADS)})"
        ) from None
