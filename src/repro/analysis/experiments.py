"""Attack-sweep experiments (Figures 1-4, 7, 17-18).

Two sweep shapes from §2:

* **ext2 sweep** — establish N connections (then close them), create D
  directories on the USB stick, search the device image.  A fresh
  machine per attack, repeated ``repetitions`` times per (N, D) cell;
  the paper averaged 15 attacks.

* **n_tty sweep** — establish N connections and hold them open, then
  dump a random ~50% window; a fresh machine per repetition (the paper
  averaged 20 attacks per point).

``mitigation_comparison`` runs the n_tty sweep at baseline and at a
mitigated level — the before/after pairs of Figures 7, 17 and 18.

Every driver expresses its grid as a flat list of independent
:class:`~repro.analysis.parallel.RunSpec` runs and executes them
through :mod:`repro.analysis.parallel`: per-run seeds come from a hash
of the full spec (collision-free — the old arithmetic derivation
silently reused machines across cells), and ``workers=N`` fans the
grid over a process pool with byte-identical results at any N.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.protection import ProtectionLevel

@dataclass(frozen=True)
class Scale:
    """One grid size for every paper experiment: the attack sweeps,
    the performance runs and the timelines.  ``sweep --scale`` and the
    claims in ``benchmarks/test_claims.py`` both read :data:`SCALES`."""

    name: str
    ext2_connections: Tuple[int, ...]
    ext2_directories: Tuple[int, ...]
    ext2_repetitions: int
    ntty_connections: Tuple[int, ...]
    ntty_repetitions: int
    perf_transactions: int
    timeline_cycles_per_slot: int
    #: RAM for the ext2 sweep, the performance runs and the timelines.
    memory_mb: int
    #: The n_tty sweep holds up to 120 sshd children open at once, each
    #: with a realistic image footprint, so it needs a bigger box.
    ntty_memory_mb: int


#: Scaled-down grids that preserve the shapes but run in seconds.
QUICK = Scale(
    name="quick",
    ext2_connections=(25, 100, 250),
    ext2_directories=(200, 800, 2000),
    ext2_repetitions=5,
    ntty_connections=(0, 10, 30, 60, 120),
    ntty_repetitions=5,
    perf_transactions=200,
    timeline_cycles_per_slot=2,
    memory_mb=16,
    ntty_memory_mb=32,
)

#: The paper's full grids (§2): 15/20 attack repetitions, connections
#: up to 500, directories up to 10000, 4000 transfers.
PAPER = Scale(
    name="paper",
    ext2_connections=tuple(range(50, 501, 50)),
    ext2_directories=tuple(range(1000, 10001, 1000)),
    ext2_repetitions=15,
    ntty_connections=tuple(range(0, 121, 10)),
    ntty_repetitions=20,
    perf_transactions=4000,
    timeline_cycles_per_slot=4,
    memory_mb=32,
    ntty_memory_mb=64,
)

SCALES = {scale.name: scale for scale in (QUICK, PAPER)}

#: The quick grids under their own names (``e2ebench`` reads these).
QUICK_EXT2_CONNECTIONS = QUICK.ext2_connections
QUICK_EXT2_DIRECTORIES = QUICK.ext2_directories
QUICK_NTTY_CONNECTIONS = QUICK.ntty_connections


@dataclass
class SweepCell:
    """Averages for one parameter combination."""

    avg_copies: float
    success_rate: float
    avg_elapsed_s: float
    samples: int


@dataclass
class Ext2SweepResult:
    """Figure 1/2 data: (connections, directories) → cell."""

    server: str
    level: ProtectionLevel
    cells: Dict[Tuple[int, int], SweepCell] = field(default_factory=dict)
    #: Runs that crashed or timed out (empty on a clean sweep).
    failures: List = field(default_factory=list)

    def copies_surface(self) -> Dict[Tuple[int, int], float]:
        return {key: cell.avg_copies for key, cell in self.cells.items()}

    def success_surface(self) -> Dict[Tuple[int, int], float]:
        return {key: cell.success_rate for key, cell in self.cells.items()}


@dataclass
class NttySweepResult:
    """Figure 3/4/7/17/18 data: connections → cell."""

    server: str
    level: ProtectionLevel
    cells: Dict[int, SweepCell] = field(default_factory=dict)
    #: Runs that crashed or timed out (empty on a clean sweep).
    failures: List = field(default_factory=list)

    def copies_series(self) -> List[Tuple[int, float]]:
        return sorted((conns, cell.avg_copies) for conns, cell in self.cells.items())

    def success_series(self) -> List[Tuple[int, float]]:
        return sorted((conns, cell.success_rate) for conns, cell in self.cells.items())


def ext2_attack_sweep(
    server: str,
    connections: Sequence[int] = QUICK_EXT2_CONNECTIONS,
    directories: Sequence[int] = QUICK_EXT2_DIRECTORIES,
    repetitions: int = QUICK.ext2_repetitions,
    level: ProtectionLevel = ProtectionLevel.NONE,
    seed: int = 0,
    memory_mb: int = 16,
    key_bits: int = 1024,
    workers: int = 1,
    timeout_s: Optional[float] = None,
    progress=None,
    retries: int = 0,
    attacker: str = "exact",
) -> Ext2SweepResult:
    """Reproduce Figure 1 (openssh) / Figure 2 (apache), or their
    §5.2/§6.2 mitigated re-runs at another protection level.

    ``attacker="predict"`` swaps the verbatim pattern search for the
    structural reconstructor: cells then report how often the *key
    falls* to derived fragments, not how many byte copies matched.
    """
    from repro.analysis import parallel

    specs = parallel.ext2_sweep_specs(
        server, connections, directories, repetitions, level,
        seed, memory_mb, key_bits, attacker,
    )
    outcomes, failures = parallel.run_specs(
        specs, workers=workers, timeout_s=timeout_s, progress=progress,
        retries=retries,
    )
    return parallel.merge_ext2(server, level, outcomes, failures)


def ntty_attack_sweep(
    server: str,
    connections: Sequence[int] = QUICK_NTTY_CONNECTIONS,
    repetitions: int = QUICK.ntty_repetitions,
    level: ProtectionLevel = ProtectionLevel.NONE,
    seed: int = 0,
    memory_mb: int = 16,
    key_bits: int = 1024,
    workers: int = 1,
    timeout_s: Optional[float] = None,
    progress=None,
    retries: int = 0,
    attacker: str = "exact",
) -> NttySweepResult:
    """Reproduce Figure 3 (openssh) / Figure 4 (apache), or the
    mitigated series of Figures 7, 17 and 18.

    ``attacker="predict"`` swaps the verbatim pattern search for the
    structural reconstructor (see :func:`ext2_attack_sweep`).
    """
    from repro.analysis import parallel

    specs = parallel.ntty_sweep_specs(
        server, connections, repetitions, level, seed, memory_mb, key_bits,
        attacker,
    )
    outcomes, failures = parallel.run_specs(
        specs, workers=workers, timeout_s=timeout_s, progress=progress,
        retries=retries,
    )
    return parallel.merge_ntty(server, level, outcomes, failures)


def mitigation_comparison(
    server: str,
    connections: Sequence[int] = QUICK_NTTY_CONNECTIONS,
    repetitions: int = QUICK.ntty_repetitions,
    mitigated_level: ProtectionLevel = ProtectionLevel.INTEGRATED,
    seed: int = 0,
    memory_mb: int = 16,
    key_bits: int = 1024,
    workers: int = 1,
    timeout_s: Optional[float] = None,
    progress=None,
    retries: int = 0,
) -> Tuple[NttySweepResult, NttySweepResult]:
    """Before/after n_tty sweeps (Figures 7a+7b, 17, 18).

    Both levels' grids run as one flat spec list (so a pool interleaves
    them freely); per-level results merge apart afterwards.  Returns
    ``(baseline, mitigated)``.
    """
    from repro.analysis import parallel

    base_specs = parallel.ntty_sweep_specs(
        server, connections, repetitions, ProtectionLevel.NONE,
        seed, memory_mb, key_bits,
    )
    mit_specs = parallel.ntty_sweep_specs(
        server, connections, repetitions, mitigated_level,
        seed, memory_mb, key_bits,
    )
    outcomes, failures = parallel.run_specs(
        base_specs + mit_specs,
        workers=workers, timeout_s=timeout_s, progress=progress,
        retries=retries,
    )
    split = len(base_specs)
    base_level = ProtectionLevel.NONE.value
    baseline = parallel.merge_ntty(
        server, ProtectionLevel.NONE, outcomes[:split],
        [f for f in failures if f.spec.level == base_level],
    )
    mitigated = parallel.merge_ntty(
        server, mitigated_level, outcomes[split:],
        [f for f in failures if f.spec.level != base_level],
    )
    return baseline, mitigated
