"""An HSM/TPM-like key vault whose storage is outside simulated RAM.

Both the abstract and §7 of the paper conclude that *"in order to
completely avoid key exposures due to memory disclosures, special
hardware is necessary"* — software can minimise the key to one
physical copy but never to zero.  The vault is that endpoint: keys
stored here have **no physical address**, so no memory-disclosure
attack in this framework can reach them, by construction.

A private operation charges :data:`VAULT_OP_US` of device time.  Its
host-side arithmetic goes through :meth:`RsaKey.private_op`, which
takes the same known-plaintext guard as the RAM engine
(:func:`repro.crypto.rsa.crt_known_answer`): a caller's ``known``
plaintext is returned only when the slot's own fields prove it, and a
damaged slot or a wrong ``known`` takes the real CRT path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from repro.crypto.rsa import RsaKey
from repro.errors import RsaStructError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.kernel import Kernel

#: Latency of one on-device RSA private operation, microseconds.
#: Era-appropriate crypto hardware was slower than the host CPU for a
#: single operation — the price of the guarantee.
VAULT_OP_US = 12_000.0


class KeyVault:
    """Holds private keys off-RAM; performs private operations on-device."""

    def __init__(self, kernel: "Kernel") -> None:
        self.kernel = kernel
        self._slots: Dict[int, RsaKey] = {}
        self._next_handle = 1
        self.ops_performed = 0

    def store(self, key: RsaKey) -> int:
        """Import a private key; returns the opaque handle."""
        handle = self._next_handle
        self._next_handle += 1
        self._slots[handle] = key
        return handle

    def private_op(
        self, handle: int, x: int, known: Optional[int] = None
    ) -> int:
        """Perform ``x^d mod n`` on-device; ``known`` is the caller's
        plaintext, if it has one."""
        try:
            key = self._slots[handle]
        except KeyError:
            raise RsaStructError(f"no key in vault slot {handle}") from None
        self.kernel.clock.advance(VAULT_OP_US, "vault_op")
        self.ops_performed += 1
        return key.private_op(x, known=known)

    def destroy(self, handle: int) -> None:
        """Erase a vault slot (hardware keys can actually be erased)."""
        if handle not in self._slots:
            raise RsaStructError(f"no key in vault slot {handle}")
        del self._slots[handle]

    def __len__(self) -> int:
        return len(self._slots)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"KeyVault(keys={len(self._slots)}, ops={self.ops_performed})"
