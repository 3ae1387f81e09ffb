"""StructuralPredictor: each recovery method rebuilds the key from the
fragment it targets, with no ground-truth patterns in hand.

Every test plants one kind of derived material (a DER blob, a PEM
fragment, a raw factor, a bare private exponent, a lone CRT exponent)
inside high-entropy noise the exact-match scanner has no pattern for,
and requires the predictor to rebuild — and verify — the full key from
the public half alone.
"""

import random

import pytest

from repro.attacks.predict import (
    PREDICT_METHODS,
    Ext2PredictAttack,
    NttyPredictAttack,
    PredictResult,
    StructuralPredictor,
)
from repro.crypto.keycorpus import key_material
from repro.crypto.rsa import int_to_bytes

MATERIAL = key_material(256, 7)
KEY = MATERIAL.key


def noise(length, seed=0):
    return random.Random(seed).randbytes(length)


def planted(fragment, seed=1, pad=512):
    """Fragment surrounded by high-entropy noise at an odd offset."""
    return noise(pad, seed) + fragment + noise(pad, seed + 1)


def predictor(**kwargs):
    return StructuralPredictor(KEY.n, KEY.e, **kwargs)


def assert_rebuilt(result):
    assert result.success
    assert result.recovered_key is not None
    assert result.recovered_key.n == KEY.n
    assert result.recovered_key.d == KEY.d
    assert {result.recovered_key.p, result.recovered_key.q} == {KEY.p, KEY.q}


class TestDerWalk:
    def test_der_blob_in_noise_rebuilds_the_key(self):
        result = predictor().scan_segments([planted(MATERIAL.der)])
        assert_rebuilt(result)
        assert result.counts["der-walk"] >= 1

    def test_headerless_der_defeats_the_walker_gracefully(self):
        # stripping the SEQUENCE header leaves no decodable structure
        # at the blob start; stray 0x30 bytes inside the integers must
        # fail decoding without crashing the scan
        result = predictor().scan_segments([planted(MATERIAL.der[3:])])
        assert result.counts["der-walk"] == 0

    @pytest.mark.parametrize("part", ["p", "q", "dmp1", "dmq1", "iqmp"])
    def test_damaged_crt_field_yields_the_true_key(self, part):
        """Only d is verified against the public key, so a blob whose
        other fields are damaged must not hand back its wrong parts."""
        field = int_to_bytes(getattr(KEY, part))
        at = MATERIAL.der.index(field) + len(field) // 2
        damaged = bytearray(MATERIAL.der)
        damaged[at] ^= 0x5A
        result = predictor().scan_segments([planted(bytes(damaged))])
        assert result.counts["der-walk"] == 1
        assert result.recovered_key == KEY


class TestPemDecode:
    def test_partial_pem_rebuilds_the_key(self):
        """The exact-match probe needs the full PEM body; the miner
        recovers from a *fragment* — armor stripped, header line gone."""
        body = MATERIAL.pem.split(b"-----")[2]
        fragment = body[body.index(b"\n", 5):]
        result = predictor().scan_segments([planted(fragment)])
        assert_rebuilt(result)
        assert result.counts["pem-decode"] >= 1

    def test_short_base64_runs_are_ignored(self):
        result = predictor().scan_segments([planted(b"QUJDRA==" * 3)])
        assert result.counts["pem-decode"] == 0


class TestFactorWindow:
    def test_raw_factor_bytes_rebuild_the_key(self):
        result = predictor().scan_segments([planted(int_to_bytes(KEY.p))])
        assert_rebuilt(result)
        assert result.counts["factor-window"] >= 1

    def test_montgomery_style_modulus_copy_is_caught(self):
        # MontgomeryContext stores the modulus (a factor) verbatim
        result = predictor().scan_segments([planted(int_to_bytes(KEY.q))])
        assert result.success


class TestExponentWindows:
    def test_bare_private_exponent_rebuilds_the_key(self):
        result = predictor().scan_segments([planted(int_to_bytes(KEY.d))])
        assert_rebuilt(result)
        assert result.counts["private-exponent-window"] >= 1

    def test_lone_crt_exponent_rebuilds_the_key(self):
        """The heart of the structural attack: dmp1 alone — a value the
        exact scanner has no pattern for — surrenders a factor via
        Fermat, and the factor surrenders the key."""
        result = predictor().scan_segments([planted(int_to_bytes(KEY.dmp1))])
        assert_rebuilt(result)
        assert result.counts["crt-exponent-window"] >= 1

    def test_budget_exhaustion_is_reported_not_silent(self):
        tight = predictor(crt_budget=1)
        result = tight.scan_segments([noise(4096, seed=9)])
        assert not result.success
        assert result.truncated

    def test_exponent_pass_skipped_once_key_recovered(self):
        # a cheap-pass hit (DER) must not spend the modpow budget
        result = predictor(crt_budget=1).scan_segments([planted(MATERIAL.der)])
        assert result.success
        assert not result.truncated


class TestResultShape:
    def test_counts_cover_every_method(self):
        result = predictor().scan_segments([noise(64)])
        assert set(result.counts) == set(PREDICT_METHODS)
        assert not result.success
        assert result.total_copies == 0

    def test_hits_are_sorted_and_total_matches(self):
        data = planted(int_to_bytes(KEY.p)) + planted(MATERIAL.der, seed=3)
        result = predictor().scan_segments([data])
        assert result.total_copies == sum(result.counts.values())
        offsets = [(hit.offset, hit.method) for hit in result.hits]
        assert offsets == sorted(offsets)

    def test_multiple_segments_scanned_independently(self):
        segments = [planted(int_to_bytes(KEY.p)), noise(256, seed=4)]
        result = predictor().scan_segments(segments)
        assert result.success

    def test_empty_result_defaults(self):
        result = PredictResult(counts={m: 0 for m in PREDICT_METHODS})
        assert not result.success
        assert result.origins == ()
        assert result.recovered_key is None


class TestSimulationWiring:
    def test_ntty_and_ext2_predict_run_end_to_end(self):
        from repro.core.protection import ProtectionLevel
        from repro.core.simulation import Simulation, SimulationConfig

        sim = Simulation(
            SimulationConfig(
                server="openssh",
                level=ProtectionLevel.NONE,
                seed=7,
                memory_mb=8,
                key_bits=256,
                taint=True,
            )
        )
        sim.start_server()
        sim.cycle_connections(4)
        ntty = sim.run_ntty_predict()
        assert isinstance(ntty, PredictResult)
        assert ntty.coverage is not None
        ext2 = sim.run_ext2_predict(num_dirs=400)
        assert isinstance(ext2, PredictResult)
        assert ext2.elapsed_s >= 0

    def test_attack_classes_exported(self):
        assert NttyPredictAttack is not None
        assert Ext2PredictAttack is not None
