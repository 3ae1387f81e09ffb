"""The deterministic parallel sweep engine.

Covers the two driver bugs this engine fixes (seed collisions across
repetitions/cells, phantom results from lost workers) and the core
guarantee: a sweep's cells are byte-identical at any worker count.
"""

import pytest

from repro.analysis import parallel
from repro.analysis.experiments import (
    ext2_attack_sweep,
    mitigation_comparison,
    ntty_attack_sweep,
)
from repro.analysis.parallel import (
    FailedRun,
    RunSpec,
    derive_seed,
    ext2_sweep_specs,
    merge_ntty,
    ntty_sweep_specs,
    run_specs,
)
from repro.core.protection import ProtectionLevel


class TestSeedDerivation:
    def test_old_collision_grid_gets_distinct_seeds(self):
        """Regression: ``seed + 1000*rep + conns + dirs`` ran the same
        machine for rep=0/dirs=2000 and rep=1/dirs=1000.  The spec-hash
        derivation must give every repetition its own seed."""
        specs = ext2_sweep_specs(
            "openssh", connections=(10,), directories=(1000, 2000),
            repetitions=3, level=ProtectionLevel.NONE, seed=0,
            memory_mb=8, key_bits=256,
        )
        seeds = [derive_seed(spec) for spec in specs]
        assert len(set(seeds)) == len(specs)

    def test_no_aliasing_across_cells(self):
        """conns+dirs aliasing: (100, 1000) vs (1000, 100) etc. must
        not share machines anywhere on a paper-scale grid."""
        specs = ext2_sweep_specs(
            "openssh", connections=tuple(range(50, 501, 50)),
            directories=tuple(range(1000, 10001, 1000)),
            repetitions=15, level=ProtectionLevel.NONE, seed=0,
            memory_mb=16, key_bits=1024,
        )
        seeds = {derive_seed(spec) for spec in specs}
        assert len(seeds) == len(specs)  # 10 * 10 * 15 distinct machines

    def test_ntty_repetitions_distinct(self):
        specs = ntty_sweep_specs(
            "apache", connections=(0, 10, 20), repetitions=20,
            level=ProtectionLevel.NONE, seed=3, memory_mb=8, key_bits=256,
        )
        seeds = [derive_seed(spec) for spec in specs]
        assert len(set(seeds)) == len(specs)

    def test_seed_depends_on_every_field(self):
        base = RunSpec("ntty", "openssh", "none", 10, 0, 0, 0, 8, 256)
        variants = [
            RunSpec("ext2", "openssh", "none", 10, 0, 0, 0, 8, 256),
            RunSpec("ntty", "apache", "none", 10, 0, 0, 0, 8, 256),
            RunSpec("ntty", "openssh", "kernel", 10, 0, 0, 0, 8, 256),
            RunSpec("ntty", "openssh", "none", 11, 0, 0, 0, 8, 256),
            RunSpec("ntty", "openssh", "none", 10, 1, 0, 0, 8, 256),
            RunSpec("ntty", "openssh", "none", 10, 0, 1, 0, 8, 256),
            RunSpec("ntty", "openssh", "none", 10, 0, 0, 1, 8, 256),
        ]
        seeds = {derive_seed(spec) for spec in [base] + variants}
        assert len(seeds) == len(variants) + 1

    def test_derivation_is_stable(self):
        """The hash is part of the experiment contract: changing it
        silently re-rolls every recorded sweep."""
        spec = RunSpec("ntty", "openssh", "none", 10, 0, 2, 42, 16, 1024)
        assert derive_seed(spec) == derive_seed(spec)
        assert derive_seed(spec) < 2 ** 64


@pytest.mark.usefixtures("pool_cores")
class TestParallelSerialIdentity:
    def test_ntty_sweep_identical_at_any_worker_count(self):
        kwargs = dict(
            connections=(0, 10), repetitions=3,
            key_bits=256, memory_mb=8, seed=11,
        )
        serial = ntty_attack_sweep("openssh", **kwargs, workers=1)
        pooled = ntty_attack_sweep("openssh", **kwargs, workers=2)
        assert serial.cells == pooled.cells
        assert not serial.failures and not pooled.failures

    def test_ext2_sweep_identical_at_any_worker_count(self):
        kwargs = dict(
            connections=(10,), directories=(200, 600), repetitions=2,
            key_bits=256, memory_mb=8, seed=11,
        )
        serial = ext2_attack_sweep("openssh", **kwargs, workers=1)
        pooled = ext2_attack_sweep("openssh", **kwargs, workers=3)
        assert serial.cells == pooled.cells

    def test_mitigation_comparison_through_pool(self):
        base_s, mit_s = mitigation_comparison(
            "openssh", connections=(10,), repetitions=3,
            key_bits=256, memory_mb=8, seed=5, workers=1,
        )
        base_p, mit_p = mitigation_comparison(
            "openssh", connections=(10,), repetitions=3,
            key_bits=256, memory_mb=8, seed=5, workers=2,
        )
        assert base_s.cells == base_p.cells
        assert mit_s.cells == mit_p.cells
        assert base_s.cells[10].avg_copies > mit_s.cells[10].avg_copies


class TestFailureContainment:
    def _bad_spec(self):
        return RunSpec("ntty", "nosuchserver", "none", 1, 0, 0, 0, 8, 256)

    def _good_spec(self):
        return RunSpec("ntty", "openssh", "none", 1, 0, 0, 0, 8, 256)

    def test_serial_records_failure_and_continues(self):
        outcomes, failures = run_specs(
            [self._good_spec(), self._bad_spec(), self._good_spec()],
            workers=1,
        )
        assert outcomes[0] is not None and outcomes[2] is not None
        assert outcomes[1] is None
        assert len(failures) == 1
        assert failures[0].spec.server == "nosuchserver"
        assert "WorkloadError" in failures[0].error

    def test_pool_records_failure_and_continues(self, pool_cores):
        outcomes, failures = run_specs(
            [self._good_spec(), self._bad_spec(), self._good_spec()],
            workers=2,
        )
        assert outcomes[0] is not None and outcomes[2] is not None
        assert outcomes[1] is None
        assert len(failures) == 1

    def test_failed_reps_shrink_cell_samples(self):
        """A cell whose rep crashed averages over the survivors."""
        good = self._good_spec()
        outcome = parallel.execute_spec(good)
        result = merge_ntty(
            "openssh", ProtectionLevel.NONE,
            [outcome, None], [FailedRun(self._bad_spec(), "boom")],
        )
        assert result.cells[1].samples == 1
        assert len(result.failures) == 1

    def test_unknown_kind_rejected(self):
        from repro.errors import WorkloadError

        with pytest.raises(WorkloadError):
            parallel.execute_spec(
                RunSpec("warp", "openssh", "none", 1, 0, 0, 0, 8, 256)
            )


class TestAttackerAxis:
    def test_attacker_is_not_in_the_seed_blob(self):
        """Exact and predict attacks on the same cell must sample the
        *same* machine — the attacker axis changes the lens, not the
        world, so the derived seed deliberately excludes it (and every
        pre-existing exact-sweep seed stays byte-identical)."""
        base = ntty_sweep_specs(
            "openssh", [10], 1, ProtectionLevel.NONE, 0, 8, 256
        )[0]
        pred = ntty_sweep_specs(
            "openssh", [10], 1, ProtectionLevel.NONE, 0, 8, 256, "predict"
        )[0]
        assert base.attacker == "exact"
        assert pred.attacker == "predict"
        assert derive_seed(base) == derive_seed(pred)

    def test_attacker_roster(self):
        assert parallel.ATTACKERS == ("exact", "predict")

    def test_unknown_attacker_rejected(self):
        from repro.errors import WorkloadError

        with pytest.raises(WorkloadError):
            parallel.execute_spec(
                RunSpec(
                    "ntty", "openssh", "none", 1, 0, 0, 0, 8, 256, "psychic"
                )
            )

    def test_ext2_specs_carry_the_attacker(self):
        specs = ext2_sweep_specs(
            "openssh", [25], [200], 2, ProtectionLevel.NONE, 0, 8, 256,
            "predict",
        )
        assert specs and all(spec.attacker == "predict" for spec in specs)

    def test_predict_outcomes_merge_like_exact(self):
        specs = ntty_sweep_specs(
            "openssh", [10], 2, ProtectionLevel.NONE, 7, 8, 256, "predict"
        )
        outcomes, failures = run_specs(specs, workers=1)
        assert failures == []
        result = merge_ntty("openssh", ProtectionLevel.NONE, outcomes, [])
        cell = result.cells[10]
        assert cell.samples == 2
        assert 0.0 <= cell.success_rate <= 1.0

    def test_predict_sweep_identical_at_any_worker_count(self, pool_cores):
        kwargs = dict(
            connections=[0, 10], repetitions=2, seed=7,
            memory_mb=8, key_bits=256, attacker="predict",
        )
        serial = ntty_attack_sweep("openssh", workers=1, **kwargs)
        pooled = ntty_attack_sweep("openssh", workers=3, **kwargs)
        assert serial.cells == pooled.cells


class TestPerfSpecs:
    def test_scp_spec_roundtrip(self):
        spec = parallel.perf_spec(
            "scp", ProtectionLevel.NONE, transactions=10, concurrent=4,
            seed=0, memory_mb=8, key_bits=256,
        )
        outcome = parallel.execute_spec(spec)
        metrics = parallel.merge_perf(outcome)
        assert metrics.transactions == 10
        assert metrics.concurrent == 4
        assert metrics.elapsed_s > 0
        assert metrics.bytes_moved == outcome.bytes_moved


def _flaky_execute(marker_dir, flaky_keys, spec):
    """Module-level (hence picklable) runner that fails each flaky spec
    exactly once per marker directory, then behaves normally.  Marker
    files persist the 'already failed' bit across pool workers."""
    import pathlib

    key = str(derive_seed(spec))
    if key in flaky_keys:
        marker = pathlib.Path(marker_dir) / key
        if not marker.exists():
            marker.write_text("failed once")
            raise RuntimeError("simulated flaky worker")
    return parallel.execute_spec(spec)


def _always_fail(spec):
    raise RuntimeError("permanent failure")


class TestRetries:
    """--retries: deterministic recovery of flaky cells."""

    def _specs(self):
        return ntty_sweep_specs(
            "openssh", connections=(0, 5), repetitions=2,
            level=ProtectionLevel.NONE, seed=4, memory_mb=8, key_bits=256,
        )

    def _flaky_runner(self, tmp_path, specs, indices):
        import functools

        keys = frozenset(str(derive_seed(specs[i])) for i in indices)
        return functools.partial(_flaky_execute, str(tmp_path), keys)

    def test_without_retries_flaky_cells_fail(self, tmp_path):
        specs = self._specs()
        runner = self._flaky_runner(tmp_path, specs, (1, 2))
        outcomes, failures = run_specs(specs, workers=1, runner=runner)
        assert outcomes[1] is None and outcomes[2] is None
        assert len(failures) == 2
        assert all(f.attempts == 1 and f.backoff_s == 0.0 for f in failures)

    def test_retry_recovers_and_is_byte_identical(self, tmp_path):
        """A recovered cell must be indistinguishable from a first-try
        run: the seed depends only on the spec, never on the attempt."""
        specs = self._specs()
        baseline, base_failures = run_specs(specs, workers=1)
        assert not base_failures
        runner = self._flaky_runner(tmp_path, specs, (0, 3))
        outcomes, failures = run_specs(
            specs, workers=1, retries=2, runner=runner
        )
        assert failures == []
        assert outcomes == baseline

    def test_retry_through_pool(self, tmp_path, pool_cores):
        specs = self._specs()
        baseline, _ = run_specs(specs, workers=1)
        runner = self._flaky_runner(tmp_path, specs, (1,))
        outcomes, failures = run_specs(
            specs, workers=2, retries=1, runner=runner
        )
        assert failures == []
        assert outcomes == baseline

    def test_exhausted_retries_still_failedrun(self):
        specs = self._specs()[:2]
        outcomes, failures = run_specs(
            specs, workers=1, retries=2, runner=_always_fail
        )
        assert outcomes == [None, None]
        assert len(failures) == 2
        for failure in failures:
            assert failure.attempts == 3  # first try + 2 retries
            # Simulated exponential backoff: 0.05 + 0.10, never slept.
            assert failure.backoff_s == pytest.approx(
                parallel.RETRY_BACKOFF_BASE_S * 3
            )
            assert "permanent failure" in failure.error

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError):
            run_specs(self._specs()[:1], retries=-1)

    def test_sweep_level_retries_forwarded(self, tmp_path):
        """End-to-end: a flaky sweep with retries equals the fault-free
        sweep (the acceptance criterion for the satellite)."""
        kwargs = dict(
            connections=(0, 5), repetitions=2,
            key_bits=256, memory_mb=8, seed=4,
        )
        clean = ntty_attack_sweep("openssh", **kwargs, workers=1)
        retried = ntty_attack_sweep(
            "openssh", **kwargs, workers=1, retries=2
        )
        assert clean.cells == retried.cells
        assert not retried.failures


def _square(job):
    if job < 0:
        raise ValueError(f"negative job {job}")
    return job * job


class TestCoreCap:
    """Workers are capped at the usable cores; one core starts no pool."""

    def test_one_core_runs_serially_and_starts_no_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a one-core host started a pool")

        monkeypatch.setattr(parallel, "available_cores", lambda: 1)
        monkeypatch.setattr(parallel, "ProcessPoolExecutor", no_pool)
        specs = ntty_sweep_specs(
            "openssh", connections=(0,), repetitions=2,
            level=ProtectionLevel.NONE, seed=4, memory_mb=8, key_bits=256,
        )
        outcomes, failures = run_specs(specs, workers=4)
        assert failures == [] and None not in outcomes

    def test_pool_size_is_capped_at_the_cores(self, monkeypatch):
        sizes = []

        class Recorder(parallel.ProcessPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(parallel, "available_cores", lambda: 2)
        monkeypatch.setattr(parallel, "ProcessPoolExecutor", Recorder)
        outcomes, failures = run_specs([1, 2, 3], workers=8, runner=_square)
        assert sizes == [2]
        assert outcomes == [1, 4, 9] and failures == []

    def test_serial_runs_one_spec_per_step(self):
        ticks = []
        outcomes, failures = run_specs(
            list(range(8)), runner=_square,
            progress=lambda done, total, *_: ticks.append((done, total)),
        )
        assert outcomes == [n * n for n in range(8)] and failures == []
        assert ticks == [(n, 8) for n in range(1, 9)]

    def test_serial_deadline_records_timeouts(self):
        outcomes, failures = run_specs([1, 2], runner=_square, timeout_s=0.0)
        assert outcomes == [None, None]
        assert [f.error for f in failures] == ["timeout", "timeout"]

    def test_available_cores_is_positive(self):
        assert parallel.available_cores() >= 1


@pytest.mark.parametrize("workers", [1, 2])
def test_any_picklable_job_runs(workers, pool_cores):
    """Jobs need not be RunSpecs, nor results RunOutcomes: a result is
    kept because the runner returned it, an error because it raised."""
    outcomes, failures = run_specs([3, -1, 4], workers=workers, runner=_square)
    assert outcomes == [9, None, 16]
    assert [(f.spec, f.error) for f in failures] == [
        (-1, "ValueError: negative job -1")
    ]
