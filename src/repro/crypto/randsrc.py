"""Deterministic randomness for reproducible experiments.

Every stochastic decision in the library — key generation, attack dump
placement, workload arrival jitter — draws from a
:class:`DeterministicRandom` seeded by the experiment configuration,
so each figure regenerates byte-for-byte.

This is a *simulation* DRBG, not a secure one; the paper's threat
model is disclosure of keys already in memory, not randomness quality.
"""

from __future__ import annotations

import hashlib
import random
from typing import Optional


class DeterministicRandom(random.Random):
    """A seeded PRNG with the helpers the crypto substrate needs."""

    def __init__(self, seed: int = 0) -> None:
        super().__init__(seed)
        self.initial_seed = seed

    def random_bytes(self, n: int) -> bytes:
        """``n`` uniformly random bytes."""
        if n < 0:
            raise ValueError("byte count must be non-negative")
        return self.randbytes(n)

    def random_nonzero_bytes(self, n: int) -> bytes:
        """``n`` random bytes, none of them zero (PKCS#1 v1.5 padding)."""
        out = bytearray()
        while len(out) < n:
            chunk = self.randbytes(n - len(out))
            out += bytes(b for b in chunk if b != 0)
        return bytes(out)

    def random_odd_int(self, bits: int) -> int:
        """A random odd integer with exactly ``bits`` bits.

        The top two bits are forced to 1, as real RSA prime generation
        does, so the product of two such primes has the full 2*bits.
        """
        if bits < 3:
            raise ValueError("need at least 3 bits")
        value = self.getrandbits(bits)
        value |= (1 << (bits - 1)) | (1 << (bits - 2)) | 1
        return value

    def fork_stream(self, label: str) -> "DeterministicRandom":
        """Derive an independent, reproducible sub-stream.

        Experiments hand each component (keygen, attack, workload) its
        own stream so adding draws to one cannot perturb another.
        """
        derived = hash_seed(f"{self.initial_seed}:{label}")
        return DeterministicRandom(derived & 0x7FFF_FFFF_FFFF_FFFF)


def hash_seed(*parts: object) -> int:
    """The package's one seed hash: the first 8 bytes, big-endian, of
    SHA-256 over ``"|".join(parts)``.  Each caller leads with its own
    tag (``"repro-sweep-v1"``, ``"repro-chaos-v1"``, ``"repro-soak-v1"``,
    ``"repro-incarnation-v1"``), so kinds of seed never collide."""
    blob = "|".join(str(part) for part in parts)
    return int.from_bytes(hashlib.sha256(blob.encode("utf-8")).digest()[:8], "big")


def make_rng(seed: Optional[int] = None) -> DeterministicRandom:
    """Factory used across the library; ``None`` means seed 0."""
    return DeterministicRandom(0 if seed is None else seed)
