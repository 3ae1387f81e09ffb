"""Cached deterministic RSA key corpus for sweep workloads.

A cold key is the largest single cost of booting a machine (the
measured shares are in EXPERIMENTS.md, "Performance methodology") —
and the sweep engine boots a *fresh* machine per
:class:`~repro.analysis.parallel.RunSpec`, so without a cache the same
``(key_bits, seed)`` key would be reground on every repetition of
every cell.

The corpus exploits a determinism guarantee the simulation already
provides: :class:`~repro.crypto.randsrc.DeterministicRandom`'s
``fork_stream`` is *stateless* — the ``"keygen"`` stream is a pure
function of ``(seed, "keygen")``, untouched by whatever the other
streams consume.  :func:`key_material` therefore reproduces the exact
bytes :class:`~repro.core.simulation.Simulation` would have generated
(key, DER, and PEM alike), and a cache hit is byte-for-byte
indistinguishable from a fresh keygen.  Sweep cells stay identical at
any worker count, with or without the cache.

:class:`~repro.crypto.rsa.RsaKey` is a frozen dataclass over ints and
``bytes``, so cached entries are safely shared across simulations in
one process; worker processes forked by the sweep pool inherit the
parent's warm corpus for free (Linux ``fork`` start method).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterable, Tuple

from repro.crypto.asn1 import encode_rsa_private_key
from repro.crypto.pem import pem_encode
from repro.crypto.randsrc import DeterministicRandom
from repro.crypto.rsa import RsaKey, generate_rsa_key

#: Cached keys kept per process.  A sweep grid reuses a few dozen
#: distinct (bits, seed) pairs at most per chunk; the cap only guards
#: pathological callers hashing through thousands of seeds.
CORPUS_CAPACITY = 256

#: The RNG stream label Simulation forks for key generation.  The
#: corpus must derive through the same label to reproduce its bytes.
KEYGEN_STREAM = "keygen"


@dataclass(frozen=True)
class KeyMaterial:
    """Everything key-shaped a simulation derives from (bits, seed)."""

    key: RsaKey
    der: bytes
    pem: bytes


_corpus: "OrderedDict[Tuple[int, int], KeyMaterial]" = OrderedDict()
_stats: Dict[str, int] = {"hits": 0, "misses": 0}


def _generate(key_bits: int, seed: int) -> KeyMaterial:
    rng = DeterministicRandom(seed).fork_stream(KEYGEN_STREAM)
    key = generate_rsa_key(key_bits, rng)
    der = encode_rsa_private_key(
        key.n, key.e, key.d, key.p, key.q, key.dmp1, key.dmq1, key.iqmp
    )
    return KeyMaterial(key=key, der=der, pem=pem_encode(der))


def key_material(key_bits: int, seed: int) -> KeyMaterial:
    """The key/DER/PEM a ``Simulation(seed=seed, key_bits=key_bits)``
    generates — cached, byte-identical to a fresh derivation."""
    entry = _corpus.get((key_bits, seed))
    if entry is not None:
        _stats["hits"] += 1
        _corpus.move_to_end((key_bits, seed))
        return entry
    _stats["misses"] += 1
    entry = _generate(key_bits, seed)
    _corpus[(key_bits, seed)] = entry
    while len(_corpus) > CORPUS_CAPACITY:
        _corpus.popitem(last=False)
    return entry


def prewarm(pairs: Iterable[Tuple[int, int]]) -> int:
    """Generate (and cache) every ``(key_bits, seed)`` pair up front.

    Called by the sweep engine before forking its worker pool so the
    children inherit a warm corpus instead of each regrinding the
    same keys.  Returns the number of keys actually generated.
    """
    generated = 0
    for key_bits, seed in pairs:
        if (key_bits, seed) not in _corpus:
            key_material(key_bits, seed)
            generated += 1
        else:
            _corpus.move_to_end((key_bits, seed))
    return generated


def cache_stats() -> Dict[str, int]:
    """Hit/miss/size counters (for benchmarks and tests)."""
    return {**_stats, "size": len(_corpus)}


def clear() -> None:
    """Drop every cached key and reset the counters (test isolation)."""
    _corpus.clear()
    _stats["hits"] = 0
    _stats["misses"] = 0
