"""Primality and prime-generation tests."""

import hashlib
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import keycorpus, primes
from repro.crypto.primes import (
    _DETERMINISTIC_LIMIT,
    _bpsw,
    _miller_rabin_round,
    _odd_part,
    _strong_lucas,
    generate_prime,
    is_probable_prime,
)
from repro.crypto.randsrc import DeterministicRandom
from repro.crypto.rsa import generate_rsa_key
from repro.errors import KeyGenerationError

KNOWN_PRIMES = [2, 3, 5, 7, 11, 13, 101, 7919, 104729, 2**31 - 1, 2**61 - 1]
KNOWN_COMPOSITES = [1, 0, -7, 4, 9, 15, 100, 7917, 2**31, 2**61 - 3]
# Carmichael numbers fool the Fermat test but not Miller-Rabin.
CARMICHAEL = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265]


class TestIsProbablePrime:
    @pytest.mark.parametrize("p", KNOWN_PRIMES)
    def test_known_primes(self, p):
        assert is_probable_prime(p)

    @pytest.mark.parametrize("n", KNOWN_COMPOSITES)
    def test_known_composites(self, n):
        assert not is_probable_prime(n)

    @pytest.mark.parametrize("n", CARMICHAEL)
    def test_carmichael_numbers_rejected(self, n):
        assert not is_probable_prime(n)

    def test_large_prime(self):
        # 2^127 - 1 is a Mersenne prime, above the deterministic limit
        # for some witnesses but well-testable.
        assert is_probable_prime(2**127 - 1)
        assert not is_probable_prime(2**127 - 3)

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(2, 100000))
    def test_agrees_with_trial_division(self, n):
        by_trial = n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))
        assert is_probable_prime(n) == by_trial

    @settings(max_examples=30, deadline=None)
    @given(a=st.integers(2, 2**40), b=st.integers(2, 2**40))
    def test_products_are_composite(self, a, b):
        assert not is_probable_prime(a * b)


class TestGeneratePrime:
    def test_bit_length_exact(self):
        rng = DeterministicRandom(1)
        for bits in (16, 64, 128, 256):
            p = generate_prime(bits, rng)
            assert p.bit_length() == bits
            assert is_probable_prime(p)

    def test_top_two_bits_set(self):
        rng = DeterministicRandom(2)
        p = generate_prime(64, rng)
        assert (p >> 62) & 0b11 == 0b11

    def test_avoid(self):
        rng1 = DeterministicRandom(3)
        p = generate_prime(32, rng1)
        rng2 = DeterministicRandom(3)
        q = generate_prime(32, rng2, avoid=p)
        assert q != p

    def test_deterministic(self):
        assert generate_prime(64, DeterministicRandom(7)) == generate_prime(
            64, DeterministicRandom(7)
        )

    def test_too_small_rejected(self):
        with pytest.raises(KeyGenerationError):
            generate_prime(4, DeterministicRandom(1))

    def test_odd(self):
        p = generate_prime(48, DeterministicRandom(11))
        assert p % 2 == 1


# ----------------------------------------------------------------------
# BPSW: the same keys as the 40-round Miller–Rabin test it replaced
# ----------------------------------------------------------------------
def _reference_is_probable_prime(n, rng=None):
    """The 40-round Miller–Rabin test keygen used before BPSW, frozen
    with its own helpers: the reference the identity lock holds the
    live test to."""
    if n < 2:
        return False
    for p in _REFERENCE_SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    if n < 3_317_044_064_679_887_385_961_981:
        witnesses = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    else:
        rng = rng if rng is not None else DeterministicRandom(n & 0xFFFF_FFFF)
        witnesses = tuple(rng.randrange(2, n - 1) for _ in range(40))
    for a in witnesses:
        a %= n
        if a < 2:
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


_REFERENCE_SMALL_PRIMES = [p for p in range(2, 200) if all(p % q for q in range(2, p))]


#: SHA-256 over ``key_material(bits, seed).der`` for bits 256, 512 and
#: 1024 (outer) and seeds 0–11 (inner), recorded with the 40-round test.
KEYS_DIGEST_0_11 = (
    "89e2a0d5b0f775d0cb8be5c256074618aa173fe811e08d7af72ceb8196f45f37"
)

#: Strong Lucas pseudoprimes (Selfridge's method A) below 10^5.
STRONG_LUCAS_PSEUDOPRIMES = [
    5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519,
]

#: Composite 2^p - 1 above the deterministic limit: no factor below
#: 2000, and every one passes the strong base-2 round.
COMPOSITE_MERSENNE_EXPONENTS = [97, 101, 103, 109, 137, 139, 149]


def _odd_primality_below(limit):
    sieve = bytearray([1]) * limit
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytearray(len(sieve[i * i::i]))
    return sieve


class TestSameKeys:
    @pytest.mark.parametrize("bits,seeds", [(256, range(36)), (1024, range(5))])
    def test_every_candidate_gets_the_reference_verdict(self, bits, seeds,
                                                        monkeypatch):
        """Each candidate keygen draws gets the frozen test's verdict
        and leaves the ``rng`` exactly where the frozen test did."""
        live = primes.is_probable_prime
        checked = []

        def both(n, rng=None):
            shadow = DeterministicRandom()
            shadow.setstate(rng.getstate())
            verdict = live(n, rng)
            assert verdict == _reference_is_probable_prime(n, shadow), n
            assert rng.getstate() == shadow.getstate(), n
            checked.append(verdict)
            return verdict

        monkeypatch.setattr(primes, "is_probable_prime", both)
        for seed in seeds:
            rng = DeterministicRandom(seed).fork_stream(keycorpus.KEYGEN_STREAM)
            generate_rsa_key(bits, rng)
        assert checked.count(True) == 2 * len(seeds)
        assert len(checked) > 10 * len(seeds)

    def test_key_digest_is_pinned(self):
        keycorpus.clear()
        try:
            digest = hashlib.sha256()
            for bits in (256, 512, 1024):
                for seed in range(12):
                    digest.update(keycorpus.key_material(bits, seed).der)
        finally:
            keycorpus.clear()
        assert digest.hexdigest() == KEYS_DIGEST_0_11


class TestBpsw:
    @pytest.mark.parametrize("p", COMPOSITE_MERSENNE_EXPONENTS)
    def test_composite_mersenne_numbers_fail_the_lucas_half(self, p):
        n = 2**p - 1
        assert n > _DETERMINISTIC_LIMIT
        assert pow(3, n - 1, n) != 1  # Fermat witness: n is composite
        assert math.gcd(n, math.prod(range(1, 2000, 2))) == 1
        assert _miller_rabin_round(n, 2, *_odd_part(n - 1))
        assert not _strong_lucas(n)
        assert not _bpsw(n)
        assert not is_probable_prime(n, DeterministicRandom(p))

    @pytest.mark.parametrize("n", STRONG_LUCAS_PSEUDOPRIMES)
    def test_strong_lucas_pseudoprimes_fail_bpsw(self, n):
        assert _strong_lucas(n)  # a genuine pseudoprime for the Lucas half
        assert not _bpsw(n)

    def test_agrees_with_trial_division_on_odd_n_below_1e5(self):
        is_prime = _odd_primality_below(10**5)
        wrong = [n for n in range(3, 10**5, 2) if _bpsw(n) != bool(is_prime[n])]
        assert wrong == []

    def test_large_mersenne_primes_pass(self):
        for p in (89, 107, 127, 521, 607):
            assert _bpsw(2**p - 1)
            assert is_probable_prime(2**p - 1)
