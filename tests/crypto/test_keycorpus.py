"""The deterministic key corpus: identity with direct keygen, LRU bounds.

The corpus exists so parallel sweep workers stop paying keygen
inside the timed region — but it is only sound because
``DeterministicRandom.fork_stream`` is a pure function of
``(initial_seed, label)``: a corpus hit must be *byte-identical* to
what ``Simulation`` would have generated inline.
"""

import pytest

from repro.core.simulation import Simulation, SimulationConfig
from repro.crypto import keycorpus
from repro.crypto.asn1 import encode_rsa_private_key
from repro.crypto.pem import pem_encode
from repro.crypto.randsrc import DeterministicRandom
from repro.crypto.rsa import generate_rsa_key


@pytest.fixture(autouse=True)
def _fresh_corpus():
    keycorpus.clear()
    yield
    keycorpus.clear()


def _direct(key_bits, seed):
    rng = DeterministicRandom(seed).fork_stream(keycorpus.KEYGEN_STREAM)
    key = generate_rsa_key(key_bits, rng)
    der = encode_rsa_private_key(
        key.n, key.e, key.d, key.p, key.q, key.dmp1, key.dmq1, key.iqmp
    )
    return key, der, pem_encode(der)


class TestDeterminism:
    @pytest.mark.parametrize("seed", [0, 1, 42, 70_000])
    def test_corpus_matches_direct_keygen(self, seed):
        material = keycorpus.key_material(256, seed)
        key, der, pem = _direct(256, seed)
        assert material.key == key
        assert material.der == der
        assert material.pem == pem

    def test_simulation_key_comes_from_the_corpus_unchanged(self):
        config = SimulationConfig(memory_mb=8, key_bits=256, seed=7)
        sim = Simulation(config)
        assert sim.key == _direct(256, 7)[0]
        assert sim.pem == keycorpus.key_material(256, 7).pem

    def test_distinct_seeds_yield_distinct_keys(self):
        assert keycorpus.key_material(256, 1).key != \
            keycorpus.key_material(256, 2).key


class TestCaching:
    def test_hit_returns_the_same_object(self):
        first = keycorpus.key_material(256, 3)
        assert keycorpus.key_material(256, 3) is first
        stats = keycorpus.cache_stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1

    def test_prewarm_populates_and_reports_generated_count(self):
        pairs = [(256, 1), (256, 2), (256, 1)]
        assert keycorpus.prewarm(pairs) == 2  # duplicates are free
        stats = keycorpus.cache_stats()
        assert stats["size"] == 2
        assert keycorpus.prewarm(pairs) == 0  # everything already warm

    def test_lru_evicts_oldest_beyond_capacity(self, monkeypatch):
        monkeypatch.setattr(keycorpus, "CORPUS_CAPACITY", 3)
        for seed in range(4):
            keycorpus.key_material(256, seed)
        assert keycorpus.cache_stats()["size"] == 3
        # seed 0 was evicted: fetching it again is a miss...
        misses_before = keycorpus.cache_stats()["misses"]
        keycorpus.key_material(256, 0)
        assert keycorpus.cache_stats()["misses"] == misses_before + 1
        # ...but still byte-identical (pure regeneration).
        assert keycorpus.key_material(256, 0).key == _direct(256, 0)[0]

    def test_bits_are_part_of_the_cache_key(self):
        small = keycorpus.key_material(256, 5)
        large = keycorpus.key_material(512, 5)
        assert small.key != large.key
        assert keycorpus.cache_stats()["size"] == 2
