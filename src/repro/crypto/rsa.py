"""RSA key generation and raw operations, from scratch.

The key model matches the paper's §2 exactly: a private key is the
six-part CRT set (d, p, q, dmp1 = d mod p-1, dmq1 = d mod q-1,
iqmp = q^-1 mod p), and "a copy of the private key" means any in-memory
appearance of d, p, q, or the PEM-encoded key file — disclosure of any
one of them breaks the key (given p or q, factor n; given d, recover
p and q).

PKCS#1 v1.5 signing and encryption are included so the servers built
on top perform genuine cryptographic work per connection.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

from repro.crypto.primes import generate_prime
from repro.crypto.randsrc import DeterministicRandom
from repro.errors import CryptoError, KeyGenerationError, PaddingError, SignatureError

#: Standard public exponent.
DEFAULT_E = 65537

#: DigestInfo prefix for SHA-256 (PKCS#1 v1.5 signatures).
SHA256_DIGEST_INFO_PREFIX = bytes.fromhex(
    "3031300d060960864801650304020105000420"
)
_SHA256_PREFIX = SHA256_DIGEST_INFO_PREFIX


def pkcs1_v15_sign_encode(message: bytes, em_len: int) -> bytes:
    """EMSA-PKCS1-v1_5 encoding of SHA-256(message) into ``em_len`` bytes.

    Shared by :meth:`RsaKey.sign`/:meth:`RsaKey.verify` and the
    EVP-style layer that signs through the simulated-memory engine.
    """
    digest_info = SHA256_DIGEST_INFO_PREFIX + hashlib.sha256(message).digest()
    if len(digest_info) > em_len - 11:
        raise PaddingError(f"modulus too small for SHA-256 DigestInfo")
    pad_len = em_len - 3 - len(digest_info)
    return b"\x00\x01" + b"\xff" * pad_len + b"\x00" + digest_info


def int_to_bytes(value: int, length: Optional[int] = None) -> bytes:
    """Big-endian encoding; minimal length unless ``length`` is given."""
    if value < 0:
        raise ValueError("cannot encode negative integer")
    if length is None:
        length = max(1, (value.bit_length() + 7) // 8)
    return value.to_bytes(length, "big")


def bytes_to_int(data: bytes) -> int:
    return int.from_bytes(data, "big")


def crt_known_answer(
    n: int, e: int, p: int, q: int, dmp1: int, dmq1: int, iqmp: int,
    x: int, known: Optional[int],
) -> bool:
    """True when the CRT private operation on ``x`` provably gives ``known``.

    The guard is algebraic: ``p*q == n`` with both factors above 1,
    ``dmp1`` and ``dmq1`` invert ``e`` modulo ``p-1`` and ``q-1``,
    ``iqmp`` inverts ``q`` modulo ``p``, and ``known`` lies in
    ``[0, n)`` and encrypts to ``x``.  For an RSA modulus, unique
    factorisation and Fermat then make ``known`` exactly the CRT
    result, and ``known % p`` exactly its first half ``m1``, so a
    caller that holds the plaintext may skip the two exponentiations.
    A damaged part or a wrong ``known`` fails the guard.
    """
    return (
        known is not None
        and 1 < p
        and 1 < q
        and p * q == n
        and e * dmp1 % (p - 1) == 1
        and e * dmq1 % (q - 1) == 1
        and q * iqmp % p == 1
        and 0 <= known < n
        and pow(known, e, n) == x
    )


@dataclass(frozen=True)
class RsaKey:
    """A full RSA key pair with CRT parameters."""

    n: int
    e: int
    d: int
    p: int
    q: int
    dmp1: int
    dmq1: int
    iqmp: int

    # ------------------------------------------------------------------
    # derived sizes
    # ------------------------------------------------------------------
    @property
    def bits(self) -> int:
        return self.n.bit_length()

    @property
    def size_bytes(self) -> int:
        return (self.bits + 7) // 8

    # ------------------------------------------------------------------
    # byte views — the patterns the scanner hunts
    # ------------------------------------------------------------------
    def d_bytes(self) -> bytes:
        return int_to_bytes(self.d)

    def p_bytes(self) -> bytes:
        return int_to_bytes(self.p)

    def q_bytes(self) -> bytes:
        return int_to_bytes(self.q)

    def part_bytes(self) -> dict:
        """All six CRT parts as byte strings, keyed like OpenSSL."""
        return {
            "d": int_to_bytes(self.d),
            "p": int_to_bytes(self.p),
            "q": int_to_bytes(self.q),
            "dmp1": int_to_bytes(self.dmp1),
            "dmq1": int_to_bytes(self.dmq1),
            "iqmp": int_to_bytes(self.iqmp),
        }

    # ------------------------------------------------------------------
    # raw operations
    # ------------------------------------------------------------------
    def public_op(self, x: int) -> int:
        """x^e mod n."""
        self._check_range(x)
        return pow(x, self.e, self.n)

    def private_op(
        self, x: int, use_crt: bool = True, known: Optional[int] = None
    ) -> int:
        """x^d mod n, via CRT by default (as OpenSSL does).

        ``known`` is the caller's own plaintext, if it has one; the CRT
        path returns it without exponentiating when
        :func:`crt_known_answer` proves it is the result."""
        self._check_range(x)
        if not use_crt:
            return pow(x, self.d, self.n)
        if crt_known_answer(
            self.n, self.e, self.p, self.q, self.dmp1, self.dmq1, self.iqmp,
            x, known,
        ):
            return known
        m1 = pow(x % self.p, self.dmp1, self.p)
        m2 = pow(x % self.q, self.dmq1, self.q)
        h = ((m1 - m2) * self.iqmp) % self.p
        return (m2 + h * self.q) % self.n

    def _check_range(self, x: int) -> None:
        if not 0 <= x < self.n:
            raise CryptoError("message representative out of range")

    # ------------------------------------------------------------------
    # PKCS#1 v1.5
    # ------------------------------------------------------------------
    def sign(self, message: bytes) -> bytes:
        """PKCS#1 v1.5 signature over SHA-256(message)."""
        digest_info = _SHA256_PREFIX + hashlib.sha256(message).digest()
        em = self._pkcs1_pad(digest_info, block_type=1, rng=None)
        return int_to_bytes(self.private_op(bytes_to_int(em)), self.size_bytes)

    def verify(self, message: bytes, signature: bytes) -> None:
        """Raise :class:`SignatureError` unless the signature checks."""
        if len(signature) != self.size_bytes:
            raise SignatureError("signature length mismatch")
        em = int_to_bytes(self.public_op(bytes_to_int(signature)), self.size_bytes)
        expected = self._pkcs1_pad(
            _SHA256_PREFIX + hashlib.sha256(message).digest(), block_type=1, rng=None
        )
        if em != expected:
            raise SignatureError("bad signature")

    def encrypt(self, plaintext: bytes, rng: DeterministicRandom) -> bytes:
        """PKCS#1 v1.5 encryption with the public key."""
        em = self._pkcs1_pad(plaintext, block_type=2, rng=rng)
        return int_to_bytes(self.public_op(bytes_to_int(em)), self.size_bytes)

    def decrypt(self, ciphertext: bytes, use_crt: bool = True) -> bytes:
        """PKCS#1 v1.5 decryption with the private key."""
        if len(ciphertext) != self.size_bytes:
            raise PaddingError("ciphertext length mismatch")
        em = int_to_bytes(
            self.private_op(bytes_to_int(ciphertext), use_crt=use_crt),
            self.size_bytes,
        )
        if em[0] != 0 or em[1] != 2:
            raise PaddingError("bad PKCS#1 block header")
        sep = em.find(b"\x00", 2)
        if sep < 10:
            raise PaddingError("bad PKCS#1 padding separator")
        return em[sep + 1 :]

    def _pkcs1_pad(
        self, payload: bytes, block_type: int, rng: Optional[DeterministicRandom]
    ) -> bytes:
        k = self.size_bytes
        if len(payload) > k - 11:
            raise PaddingError(f"payload of {len(payload)} bytes too long for {k}-byte modulus")
        pad_len = k - 3 - len(payload)
        if block_type == 1:
            padding = b"\xff" * pad_len
        else:
            assert rng is not None
            padding = rng.random_nonzero_bytes(pad_len)
        return b"\x00" + bytes([block_type]) + padding + b"\x00" + payload

    def public_only(self) -> "RsaKey":
        """Strip private parts (for the client side of handshakes)."""
        return RsaKey(n=self.n, e=self.e, d=0, p=0, q=0, dmp1=0, dmq1=0, iqmp=0)


def generate_rsa_key(
    bits: int = 1024,
    rng: Optional[DeterministicRandom] = None,
    e: int = DEFAULT_E,
) -> RsaKey:
    """Generate a fresh RSA key pair.

    ``bits`` is the modulus size; the paper's servers used 1024-bit
    keys (|p| = |q| = 512).  Tests use smaller sizes for speed.
    """
    if bits < 64 or bits % 2:
        raise KeyGenerationError("modulus size must be an even number of bits >= 64")
    rng = rng if rng is not None else DeterministicRandom(0)
    half = bits // 2
    while True:
        p = generate_prime(half, rng)
        q = generate_prime(half, rng, avoid=p)
        if p == q:
            continue
        phi = (p - 1) * (q - 1)
        try:
            d = pow(e, -1, phi)
        except ValueError:
            continue  # gcd(e, phi) != 1; redraw
        if p < q:
            p, q = q, p  # OpenSSL keeps p > q so iqmp is well-defined
        n = p * q
        if n.bit_length() != bits:
            continue
        return RsaKey(
            n=n,
            e=e,
            d=d,
            p=p,
            q=q,
            dmp1=d % (p - 1),
            dmq1=d % (q - 1),
            iqmp=pow(q, -1, p),
        )
