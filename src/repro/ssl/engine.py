"""RSA engine: the ``RSA_eay_mod_exp`` analog.

Where key bytes go during a private operation, by configuration:

* ``RSA_FLAG_CACHE_PRIVATE`` set (stock default): the first operation
  allocates *persistent* Montgomery contexts for p and q on the
  process heap — two extra full key-part copies per process that has
  handled at least one handshake.

* flag cleared, key **not** aligned: per-call local Montgomery
  contexts are built and freed *without clearing*, leaving transient
  p/q copies in freed heap chunks (measurable in the ablation bench).

* flag cleared, key aligned (``BN_FLG_STATIC_DATA``): the engine reads
  the moduli directly from the static key page and makes no heap
  copies at all — the state the paper's solutions put OpenSSL in,
  where "the number of copies ... remains almost constant".

All arithmetic inputs are read back *from simulated memory*, so a
corrupted or scrubbed key produces wrong results rather than silently
using a Python-side copy.  A caller that chose the plaintext itself
(the sshd key exchange, the TLS premaster) passes it as ``known``.
The engine still makes every read, allocation, scratch write and clock
charge, but it skips the two CRT exponentiations when
:func:`repro.crypto.rsa.crt_known_answer` holds over the values read
back; ``known % p`` is then exactly the scratch value ``m1``.  The same
guard serves a vault key: ``known`` goes on to
:meth:`repro.hw.keyvault.KeyVault.private_op`, which checks it against
the slot's own fields.  A scrubbed, torn or corrupted part, or a wrong
``known``, fails the guard and takes the real exponentiations, so
callers' mismatch checks still fire.  A factor that reads back as 0
or 1 raises :class:`CryptoError`.
"""

from __future__ import annotations

from typing import Optional

from repro.crypto.rsa import crt_known_answer, int_to_bytes
from repro.errors import CryptoError, RsaStructError
from repro.ssl.rsa_st import MontgomeryContext, RsaFlag, RsaStruct


def rsa_private_operation(
    rsa: RsaStruct, x: int, known: Optional[int] = None
) -> int:
    """Compute ``x^d mod n`` by CRT, with faithful buffer behaviour.

    ``known`` is the caller's own plaintext, if it has one; it is
    returned only when the key read back from memory is proven to
    decrypt ``x`` to it."""
    rsa._note_lifecycle("serve")
    if rsa.freed:
        raise RsaStructError("private operation on freed RSA struct")
    kernel = rsa.process.kernel
    if not 0 <= x < rsa.n:
        raise CryptoError("message representative out of range")

    if rsa.vault_handle is not None:
        # Hardware path: the device computes; RAM sees nothing.
        return kernel.vault.private_op(rsa.vault_handle, x, known)

    if rsa.flags & RsaFlag.CACHE_PRIVATE:
        p = rsa.ensure_mont("p").modulus()
        q = rsa.ensure_mont("q").modulus()
        transient = []
    elif not rsa.aligned:
        mont_p = MontgomeryContext(rsa.process, rsa.part_bytes("p"))
        mont_q = MontgomeryContext(rsa.process, rsa.part_bytes("q"))
        p = mont_p.modulus()
        q = mont_q.modulus()
        transient = [mont_p, mont_q]
    else:
        p = rsa.bn["p"].value()
        q = rsa.bn["q"].value()
        transient = []

    dmp1 = rsa.bn["dmp1"].value()
    dmq1 = rsa.bn["dmq1"].value()
    iqmp = rsa.bn["iqmp"].value()

    if p <= 1 or q <= 1:
        for ctx in transient:
            ctx.free(clear=False)
        raise CryptoError("degenerate RSA modulus: a factor reads back <= 1")

    if crt_known_answer(rsa.n, rsa.e, p, q, dmp1, dmq1, iqmp, x, known):
        m1 = known % p
        result = known
    else:
        m1 = pow(x % p, dmp1, p)
        m2 = pow(x % q, dmq1, q)
        h = ((m1 - m2) * iqmp) % p
        result = (m2 + h * q) % (p * q)

    # BN_CTX scratch: intermediates live briefly on the heap.  Their
    # values (m1, m2) are *not* key-part patterns, but the allocation
    # churn is what overwrites — or fails to overwrite — stale secrets.
    scratch = rsa.process.heap.malloc(max(1, (m1.bit_length() + 7) // 8))
    rsa.process.mm.write(scratch, int_to_bytes(m1))
    rsa.process.heap.free(scratch, clear=False)

    for ctx in transient:
        ctx.free(clear=False)  # stock BN_MONT_CTX_free does not clear

    kernel.clock.charge_rsa_private()
    return result


def rsa_public_operation(rsa: RsaStruct, x: int) -> int:
    """Compute ``x^e mod n``."""
    if rsa.freed:
        raise RsaStructError("public operation on freed RSA struct")
    if not 0 <= x < rsa.n:
        raise CryptoError("message representative out of range")
    rsa.process.kernel.clock.charge_rsa_public()
    return pow(x, rsa.e, rsa.n)
