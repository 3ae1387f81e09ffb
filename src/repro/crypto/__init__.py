"""From-scratch crypto substrate: RSA, DER/ASN.1, PEM, primality.

The keys being hunted through simulated memory are *real* RSA keys —
generated with BPSW-tested primes, with the full CRT parameter set
(d, p, q, d mod (p-1), d mod (q-1), q^-1 mod p) and a byte-exact
PKCS#1 DER / PEM encoding, because the paper's scanner searches for
exact byte patterns of exactly these values.
"""

from repro.crypto.pem import pem_decode, pem_encode
from repro.crypto.primes import generate_prime, is_probable_prime
from repro.crypto.randsrc import DeterministicRandom
from repro.crypto.rsa import RsaKey, generate_rsa_key

__all__ = [
    "DeterministicRandom",
    "RsaKey",
    "generate_prime",
    "generate_rsa_key",
    "is_probable_prime",
    "pem_decode",
    "pem_encode",
]
