"""Primality testing and prime generation.

Below 3.3 * 10^24 the test is Miller–Rabin with a deterministic
witness set, exact for every integer there.  Above it, the test is
one Miller–Rabin round with a seeded random witness plus BPSW (a
strong base-2 round and a strong Lucas test, Selfridge's method A):
no composite is known to pass BPSW alone, and the random round bounds
the error by 1/4 even for one that did.

Key generation draws its witnesses from the candidate ``rng``, so the
test still draws all 40 random witnesses (:data:`_RANDOM_ROUNDS`) of
the 40-round Miller–Rabin test it replaced, and rejects exactly the
candidates that test rejected before the draw: the ``rng`` stream,
and with it every generated key, is unchanged.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

from repro.crypto.randsrc import DeterministicRandom
from repro.errors import KeyGenerationError

#: Small primes for fast trial division before the witness draw.
_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
    67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137,
    139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199,
)
_SMALL_PRODUCT = math.prod(_SMALL_PRIMES)

#: Trial division after the witness draw, by the primes 211–1999 as one
#: ``gcd``.  A larger bound measured no faster.
_TRIAL_BOUND = 2000
_TRIAL_PRODUCT = math.prod(
    p for p in range(_SMALL_PRIMES[-1] + 2, _TRIAL_BOUND, 2)
    if all(p % q for q in range(3, math.isqrt(p) + 1, 2))
)

#: Deterministic witnesses valid for n < 3,317,044,064,679,887,385,961,981.
_DETERMINISTIC_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_DETERMINISTIC_LIMIT = 3_317_044_064_679_887_385_961_981

#: Random witnesses drawn per large candidate; only the first is used.
_RANDOM_ROUNDS = 40

#: Give up after this many candidates per generate_prime call.
_MAX_ATTEMPTS = 100_000


def _miller_rabin_round(n: int, a: int, d: int, r: int) -> bool:
    """One Miller–Rabin round; True means "possibly prime"."""
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(r - 1):
        x = (x * x) % n
        if x == n - 1:
            return True
    return False


def _odd_part(m: int) -> Tuple[int, int]:
    """(d, r) with m = d * 2^r and d odd, for m > 0."""
    r = (m & -m).bit_length() - 1
    return m >> r, r


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test for odd n > 2, with Selfridge's
    method A: D is the first of 5, -7, 9, -11, ... with (D/n) = -1,
    P = 1 and Q = (1 - D) / 4.  True means "possibly prime"."""
    if math.isqrt(n) ** 2 == n:
        return False  # no D with (D/n) = -1 exists
    D = 5
    while True:
        j = _jacobi(D, n)
        if j == -1:
            break
        if j == 0 and abs(D) != n:
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4

    d, s = _odd_part(n + 1)
    # Ladder over the bits of d on (V_k, V_k+1, Q^k) with P = 1.
    v, v1, qk = 2, 1, 1
    for bit in bin(d)[2:]:
        if bit == "1":
            v, v1 = (v * v1 - qk) % n, (v1 * v1 - 2 * qk * Q) % n
            qk = qk * qk * Q % n
        else:
            v, v1 = (v * v - 2 * qk) % n, (v * v1 - qk) % n
            qk = qk * qk % n
    # D * U_d = 2 V_d+1 - V_d, and (D/n) = -1 makes D invertible mod n.
    if (2 * v1 - v) % n == 0:
        return True
    for _ in range(s):
        if v == 0:
            return True
        v = (v * v - 2 * qk) % n
        qk = qk * qk % n
    return False


def _bpsw(n: int) -> bool:
    """Baillie–PSW for odd n > 2: a strong base-2 round, then a strong
    Lucas test."""
    return _miller_rabin_round(n, 2, *_odd_part(n - 1)) and _strong_lucas(n)


def is_probable_prime(n: int, rng: Optional[DeterministicRandom] = None) -> bool:
    """Primality test: exact below the deterministic-witness limit;
    above it, one ``rng``-seeded Miller–Rabin round plus BPSW."""
    if n < 2:
        return False
    if n <= _SMALL_PRIMES[-1]:
        for p in _SMALL_PRIMES:
            if n == p:
                return True
            if n % p == 0:
                return False
    if math.gcd(n, _SMALL_PRODUCT) != 1:
        return False

    d, r = _odd_part(n - 1)
    if n < _DETERMINISTIC_LIMIT:
        return all(
            _miller_rabin_round(n, a, d, r) for a in _DETERMINISTIC_WITNESSES
        )
    rng = rng if rng is not None else DeterministicRandom(n & 0xFFFF_FFFF)
    witness = rng.randrange(2, n - 1)
    # The 40-round test drew the rest too, and every key depends on it.
    for _ in range(_RANDOM_ROUNDS - 1):
        rng.randrange(2, n - 1)
    if math.gcd(n, _TRIAL_PRODUCT) != 1:
        return False
    return _miller_rabin_round(n, witness, d, r) and _bpsw(n)


def generate_prime(
    bits: int,
    rng: DeterministicRandom,
    avoid: Optional[int] = None,
) -> int:
    """Generate a ``bits``-bit prime with the top two bits set.

    ``avoid`` rejects a specific value (used so q != p).
    """
    if bits < 8:
        raise KeyGenerationError(f"prime size {bits} bits is too small")
    for _ in range(_MAX_ATTEMPTS):
        candidate = rng.random_odd_int(bits)
        if candidate == avoid:
            continue
        if is_probable_prime(candidate, rng):
            return candidate
    raise KeyGenerationError(f"failed to find a {bits}-bit prime")
