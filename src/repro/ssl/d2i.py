"""``d2i_PrivateKey``: PEM file → DER blob → RSA struct.

This is the load path both servers share, and the spot the paper's
*library-level* solution hooks: immediately after
``d2i_RSAPrivateKey`` fills in the struct, call ``RSA_memory_align()``.

Buffer hygiene matters here.  The stock path frees its two temporary
buffers — the PEM text and the decoded DER (which embeds raw d, p and
q) — *without clearing them*, planting two stale key copies in the
heap.  When alignment is requested, the paper's companion measure
("ensure the private key is not explicitly copied by the application
or any involved libraries") applies and both buffers are scrubbed
before release.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.crypto.asn1 import decode_rsa_private_key
from repro.crypto.pem import pem_decode
from repro.crypto.rsa import int_to_bytes
from repro.ssl.bio import bio_read_file
from repro.ssl.bn import bn_bin2bn
from repro.ssl.rsa_st import PART_NAMES, RsaStruct

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.process import Process


def d2i_privatekey(
    process: "Process",
    path: str,
    align: bool = False,
    use_nocache: bool = False,
    scrub_buffers: Optional[bool] = None,
) -> RsaStruct:
    """Load a PEM-encoded RSA private key into ``process``'s memory.

    ``align=True`` applies the library-level solution (alignment +
    cache disable + scrubbed temporaries); ``use_nocache=True`` opens
    the file with ``O_NOCACHE`` (effective only on a patched kernel).
    ``scrub_buffers`` controls clearing of the temporary PEM/DER
    buffers independently of ``align`` — the application-level solution
    scrubs them without the in-library align hook (defaults to
    ``align``).
    """
    if scrub_buffers is None:
        scrub_buffers = align
    # 1. PEM text: page cache copy (kernel) + heap buffer copy (user).
    pem_addr, pem_len = bio_read_file(process, path, use_nocache=use_nocache)
    try:
        pem_bytes = process.mm.read(pem_addr, pem_len)

        # 2. base64-decode into the DER buffer: raw d/p/q bytes on the heap.
        der = pem_decode(pem_bytes)
        der_addr = process.heap.malloc(len(der))
        try:
            process.mm.write(der_addr, der)

            # 3. Parse the DER *as it sits in memory* into the nine integers.
            der_in_memory = process.mm.read(der_addr, len(der))
            n, e, d, p, q, dmp1, dmq1, iqmp = decode_rsa_private_key(der_in_memory)

            # 4. Six BIGNUM allocations — the working copies of the key parts.
            values = {"d": d, "p": p, "q": q, "dmp1": dmp1, "dmq1": dmq1, "iqmp": iqmp}
            parts = {
                name: bn_bin2bn(process, int_to_bytes(values[name]))
                for name in PART_NAMES
            }
        finally:
            # 5. Temporary buffers, freed on a failed decode too:
            # scrubbed only under the paper's solutions.
            process.heap.free(der_addr, clear=scrub_buffers)
    finally:
        process.heap.free(pem_addr, clear=scrub_buffers)

    # 6. The struct that owns the six parts.
    rsa = RsaStruct(process, n=n, e=e, parts=parts)

    # 7. The library-level hook.
    if align:
        from repro.core.memory_align import rsa_memory_align

        rsa_memory_align(rsa)
    return rsa
