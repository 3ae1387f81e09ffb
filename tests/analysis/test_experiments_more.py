"""Additional experiment-driver coverage: Apache sweeps, determinism,
and the paper-scale parameter constants."""

import pytest

from repro.analysis.experiments import (
    PAPER,
    ext2_attack_sweep,
    ntty_attack_sweep,
)
from repro.core.protection import ProtectionLevel


class TestPaperScaleConstants:
    def test_ext2_grid_matches_section2(self):
        """§2: connections 50..500, directories 1000..10000, 15 attacks."""
        assert PAPER.ext2_connections == tuple(range(50, 501, 50))
        assert PAPER.ext2_directories == tuple(range(1000, 10001, 1000))
        assert PAPER.ext2_repetitions == 15

    def test_ntty_grid_matches_section2(self):
        """§2: connections up to ~120, 20 attacks averaged."""
        assert max(PAPER.ntty_connections) == 120
        assert PAPER.ntty_repetitions == 20


class TestApacheSweeps:
    def test_apache_ext2_sweep_finds_after_recycling(self):
        result = ext2_attack_sweep(
            "apache", connections=(80,), directories=(800,),
            repetitions=2, key_bits=256, memory_mb=8,
        )
        cell = result.cells[(80, 800)]
        assert cell.success_rate == 1.0
        assert cell.avg_copies > 0

    def test_apache_ntty_sweep(self):
        result = ntty_attack_sweep(
            "apache", connections=(0, 20), repetitions=4,
            key_bits=256, memory_mb=8,
        )
        assert result.cells[20].success_rate == 1.0
        assert result.cells[20].avg_copies > result.cells[0].avg_copies

    def test_apache_mitigated_ntty(self):
        result = ntty_attack_sweep(
            "apache", connections=(20,), repetitions=8,
            level=ProtectionLevel.INTEGRATED, key_bits=256, memory_mb=8,
        )
        cell = result.cells[20]
        assert cell.avg_copies <= 3.0
        assert cell.success_rate < 1.0


class TestSweepDeterminism:
    def test_same_seed_same_sweep(self):
        kwargs = dict(
            connections=(10,), repetitions=3, key_bits=256, memory_mb=8, seed=77
        )
        a = ntty_attack_sweep("openssh", **kwargs)
        b = ntty_attack_sweep("openssh", **kwargs)
        assert a.cells[10].avg_copies == b.cells[10].avg_copies
        assert a.cells[10].success_rate == b.cells[10].success_rate

    def test_different_seed_differs(self):
        a = ntty_attack_sweep(
            "openssh", connections=(10,), repetitions=3,
            key_bits=256, memory_mb=8, seed=1,
        )
        b = ntty_attack_sweep(
            "openssh", connections=(10,), repetitions=3,
            key_bits=256, memory_mb=8, seed=2,
        )
        # Different machines, almost surely different counts.
        assert (
            a.cells[10].avg_copies != b.cells[10].avg_copies
            or a.cells[10].avg_elapsed_s != b.cells[10].avg_elapsed_s
        )

    def test_hardware_level_sweep_is_all_zero(self):
        result = ntty_attack_sweep(
            "openssh", connections=(0, 10), repetitions=3,
            level=ProtectionLevel.HARDWARE, key_bits=256, memory_mb=8,
        )
        for cell in result.cells.values():
            assert cell.avg_copies == 0.0
            assert cell.success_rate == 0.0
