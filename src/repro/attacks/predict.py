"""Structural prediction attacks: rebuild the key *without* its bytes.

The exact-match attacks (:mod:`repro.attacks.keysearch` driving the
scanner, the ext2 dirleak, and the n_tty dump) need a verbatim copy of
d, p, q, or the PEM probe in the disclosed data.  A **structural
attacker** needs only the *public* half (n, e) — which §2's threat
model grants anyone who can connect to the server — plus any one
derived fragment, because the fragments are not independent secrets:

* a DER or PEM blob embeds every parameter (walk SEQUENCE headers,
  decode, check n);
* either prime factor divides n — slide half-size windows and test
  ``n % c == 0``;
* either CRT exponent recovers a factor by Fermat's little theorem:
  ``gcd(2**(e*dp) - 2, n)`` is p (``m**(e*dp) ≡ m mod p`` since
  ``e*dp ≡ 1 mod p-1``);
* the whole private exponent d reveals the factorization via the
  classic ``e*d - 1 = 2**t * r`` square-root-of-unity search.

This module is the dynamic counterpart of the KeyRecon static layer
(:mod:`repro.analysis.keyrecon`): KeyRecon flags every program point
where reconstruction-sufficient fragment sets may reside, and the
containment regression asserts that every key these attackers rebuild
from a real dump maps into that set.  The asymmetry the pairing
surfaces: a dump window can cut through an RSA struct's BIGNUM arena
so that only dmp1/dmq1 buffers are disclosed — the exact scanner
counts **zero** copies (dmp1 is not one of its four patterns), yet the
key falls.
"""

from __future__ import annotations

import base64
import binascii
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.crypto.asn1 import EncodingError, decode_rsa_private_key
from repro.crypto.rsa import RsaKey
from repro.mem.bytesearch import nonzero_intervals

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.attacks.ext2_dirleak import Ext2DirLeakAttack
    from repro.crypto.randsrc import DeterministicRandom
    from repro.kernel.kernel import Kernel

__all__ = [
    "PREDICT_METHODS",
    "StructuralHit",
    "PredictResult",
    "StructuralPredictor",
    "NttyPredictAttack",
    "Ext2PredictAttack",
]

#: Reconstruction methods in reporting order (the ``counts`` keys).
PREDICT_METHODS = (
    "der-walk",
    "pem-decode",
    "factor-window",
    "private-exponent-window",
    "crt-exponent-window",
)

#: Bytes legal inside a PEM body run (base64 alphabet + line breaks).
_BASE64_BYTES = frozenset(
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
    b"0123456789+/=\r\n"
)

#: Shortest base64 run worth decoding: 60 chars ≈ 45 bytes of DER,
#: enough to hold one CRT-exponent INTEGER of a 512-bit key.
_MIN_B64_RUN = 60

#: Shortest plausible private-key DER blob (tiny test keys).
_MIN_DER_LEN = 24


@dataclass(frozen=True)
class StructuralHit:
    """One place in the disclosed stream that gave the attacker
    reconstruction leverage."""

    method: str
    #: Offset into the disclosed stream (dump-file coordinates).
    offset: int
    length: int


@dataclass
class PredictResult:
    """Outcome of one structural attack run.

    Field-compatible with :class:`repro.attacks.keysearch.AttackResult`
    where the sweep merge code cares (``counts`` / ``total_copies`` /
    ``success`` / ``elapsed_s`` / ``disclosed_bytes`` / ``coverage``),
    but ``success`` means the strictly stronger thing: *the full
    private key was rebuilt and verified against (n, e)*.
    """

    #: Hits per reconstruction method (every method always present).
    counts: Dict[str, int] = field(default_factory=dict)
    hits: List[StructuralHit] = field(default_factory=list)
    #: The rebuilt key (verified: n matches, 2^(ed) ≡ 2 mod n).
    recovered_key: Optional[RsaKey] = None
    disclosed_bytes: int = 0
    elapsed_s: float = 0.0
    coverage: Optional[float] = None
    #: KeySan-attributed minting sites for the hit bytes (taint mode
    #: with an n_tty dump only; empty otherwise).
    origins: Tuple[str, ...] = ()
    #: True when the CRT modpow budget ran out before the scan did —
    #: reported, never silent.
    truncated: bool = False

    @property
    def total_copies(self) -> int:
        return sum(self.counts.values())

    @property
    def success(self) -> bool:
        return self.recovered_key is not None


class StructuralPredictor:
    """The reconstruction engine: public key in, private key out.

    Knows nothing about the simulation — it sees only disclosed bytes,
    exactly like the paper's attacker searching a dump file offline.
    ``crt_budget`` caps the expensive Fermat modpow tests per scan
    (each costs one half-width modular exponentiation); exhaustion is
    reported via the result's ``truncated`` flag.
    """

    def __init__(self, n: int, e: int, crt_budget: int = 2048) -> None:
        if n <= 0 or e <= 0:
            raise ValueError("n and e must be positive")
        self.n = n
        self.e = e
        #: Byte width of p/q/dp/dq for this modulus.
        self.half_bytes = (n.bit_length() + 15) // 16
        self.crt_budget = crt_budget
        self._base2e = pow(2, e, n)  # 2^e mod n, shared by Fermat tests

    # ------------------------------------------------------------------
    # key rebuilding from one recovered quantity
    # ------------------------------------------------------------------
    def _key_from_factor(self, c: int) -> Optional[RsaKey]:
        if not (1 < c < self.n) or self.n % c:
            return None
        p, q = max(c, self.n // c), min(c, self.n // c)
        phi = (p - 1) * (q - 1)
        if math.gcd(self.e, phi) != 1:
            return None
        d = pow(self.e, -1, phi)
        return RsaKey(
            n=self.n, e=self.e, d=d, p=p, q=q,
            dmp1=d % (p - 1), dmq1=d % (q - 1), iqmp=pow(q, -1, p),
        )

    def _key_from_d(self, d: int) -> Optional[RsaKey]:
        """Factor n from a full private exponent: e*d - 1 kills the
        order, so a random base's square-root chain hits a nontrivial
        root of unity (the textbook RSA→factoring reduction)."""
        k = self.e * d - 1
        if k <= 0 or k % 2:
            return None
        t, r = 0, k
        while r % 2 == 0:
            t, r = t + 1, r // 2
        for g in (2, 3, 5, 7, 11, 13):
            x = pow(g, r, self.n)
            for _ in range(t):
                y = pow(x, 2, self.n)
                if y == 1 and x not in (1, self.n - 1):
                    return self._key_from_factor(math.gcd(x - 1, self.n))
                if y == 1:
                    break
                x = y
        return None

    def _verify(self, key: Optional[RsaKey]) -> Optional[RsaKey]:
        if key is None or key.n != self.n:
            return None
        if pow(self._base2e, key.d, self.n) != 2:
            return None
        return key

    def _try_value(self, x: int, spend) -> Optional[RsaKey]:
        """The value funnel: is ``x`` a factor, a CRT exponent, or d?

        The two Fermat tests share one modpow: ``t = (2^e)^x mod n``
        equals 2 when x ≡ d, and gcd(t-2, n) is a factor when x is a
        CRT exponent.  ``spend`` draws from the modpow budget and
        returns False once exhausted.
        """
        if not (1 < x < self.n):
            return None
        if self.n % x == 0:
            return self._verify(self._key_from_factor(x))
        if not spend():
            return None
        t = pow(self._base2e, x, self.n)
        if t == 2:
            return self._verify(self._key_from_d(x))
        g = math.gcd(t - 2, self.n)
        if 1 < g < self.n:
            return self._verify(self._key_from_factor(g))
        return None

    # ------------------------------------------------------------------
    # DER / PEM structure walking
    # ------------------------------------------------------------------
    @staticmethod
    def _der_total_length(data: bytes, pos: int) -> Optional[int]:
        """Total byte length of a definite-length DER TLV at ``pos``,
        or None when the header is implausible/truncated."""
        if pos + 2 > len(data):
            return None
        first = data[pos + 1]
        if first < 0x80:
            return 2 + first
        count = first & 0x7F
        if count == 0 or count > 4 or pos + 2 + count > len(data):
            return None
        length = int.from_bytes(data[pos + 2 : pos + 2 + count], "big")
        return 2 + count + length

    def _walk_der(
        self, data: bytes, intervals, base: int, hits: List[StructuralHit],
    ) -> Optional[RsaKey]:
        """Try a full private-key decode at every plausible SEQUENCE."""
        recovered = None
        for lo, hi in intervals:
            pos = data.find(b"\x30", lo, hi)
            while pos != -1:
                total = self._der_total_length(data, pos)
                if (
                    total is not None
                    and _MIN_DER_LEN <= total <= len(data) - pos
                ):
                    try:
                        n, e, d, p, q, dmp1, dmq1, iqmp = (
                            decode_rsa_private_key(data[pos : pos + total])
                        )
                        key = RsaKey(
                            n=n, e=e, d=d, p=p, q=q,
                            dmp1=dmp1, dmq1=dmq1, iqmp=iqmp,
                        )
                    except (EncodingError, ValueError):
                        key = None
                    key = self._verify(key)
                    if key is not None:
                        hits.append(StructuralHit("der-walk", base + pos, total))
                        # Only d is verified; a damaged blob can carry
                        # wrong p, q or CRT fields, so rebuild from n.
                        recovered = (
                            recovered
                            or self._key_from_factor(key.p)
                            or self._key_from_d(key.d)
                        )
                        pos += total - 1
                pos = data.find(b"\x30", pos + 1, hi)
        return recovered

    @staticmethod
    def _harvest_integers(data: bytes) -> List[int]:
        """All plausible INTEGER payloads in a (possibly truncated) DER
        fragment — candidate values for the funnel."""
        values: List[int] = []
        pos = data.find(b"\x02")
        while pos != -1 and len(values) < 64:
            total = StructuralPredictor._der_total_length(data, pos)
            if total is not None and total <= len(data) - pos:
                first = data[pos + 1]
                header = 2 if first < 0x80 else 2 + (first & 0x7F)
                payload = data[pos + header : pos + total]
                if payload and not (payload[0] & 0x80):
                    values.append(int.from_bytes(payload, "big"))
            pos = data.find(b"\x02", pos + 1)
        return values

    def _walk_pem(
        self, data: bytes, intervals, base: int, hits: List[StructuralHit],
        spend,
    ) -> Optional[RsaKey]:
        """Decode base64 runs — armored, orphaned, or truncated — and
        mine the resulting DER fragments."""
        recovered = None
        for lo, hi in intervals:
            pos = lo
            while pos < hi:
                if data[pos] not in _BASE64_BYTES:
                    pos += 1
                    continue
                end = pos
                while end < hi and data[end] in _BASE64_BYTES:
                    end += 1
                run = bytes(
                    b for b in data[pos:end] if b not in (0x0D, 0x0A)
                )
                if len(run) >= _MIN_B64_RUN:
                    key = self._mine_b64_run(run, base + pos, hits, spend)
                    recovered = recovered or key
                pos = end + 1
        return recovered

    def _mine_b64_run(
        self, run: bytes, offset: int, hits: List[StructuralHit], spend,
    ) -> Optional[RsaKey]:
        """A run torn out of the middle of a PEM body has unknown
        4-char group alignment: try all four phases."""
        for phase in range(4):
            chunk = run[phase:]
            chunk = chunk[: len(chunk) - len(chunk) % 4]
            if len(chunk) < _MIN_B64_RUN:
                continue
            try:
                der = base64.b64decode(chunk, validate=True)
            except (ValueError, binascii.Error):
                continue
            sub_hits: List[StructuralHit] = []
            key = self._walk_der(
                der, [(0, len(der))], 0, sub_hits
            )
            if key is None:
                for value in self._harvest_integers(der):
                    key = self._try_value(value, spend)
                    if key is not None:
                        break
            if key is not None:
                hits.append(StructuralHit("pem-decode", offset, len(run)))
                return key
        return None

    # ------------------------------------------------------------------
    # raw-window scans
    # ------------------------------------------------------------------
    def _scan_factor_windows(
        self, data: bytes, intervals, base: int, hits: List[StructuralHit],
    ) -> Optional[RsaKey]:
        """Slide a half-width window; a factor has its top bit set and
        is odd, and dividing n is the (cheap) proof."""
        recovered = None
        half = self.half_bytes
        seen: set = set()
        for lo, hi in intervals:
            for off in range(lo, hi - half + 1):
                if not (data[off] & 0x80) or not (data[off + half - 1] & 1):
                    continue
                window = bytes(data[off : off + half])
                if window in seen:
                    continue
                seen.add(window)
                c = int.from_bytes(window, "big")
                if 1 < c < self.n and self.n % c == 0:
                    key = self._verify(self._key_from_factor(c))
                    if key is not None:
                        hits.append(
                            StructuralHit("factor-window", base + off, half)
                        )
                        recovered = recovered or key
        return recovered

    def _scan_exponent_windows(
        self, data: bytes, intervals, base: int, hits: List[StructuralHit],
        spend,
    ) -> Optional[RsaKey]:
        """Fermat-test windows as private or CRT exponents.

        Full-width windows (d is odd — e is, so d = e⁻¹ mod φ must be)
        run first: cheaper screen, bigger prize.  Half-width dp/dq
        windows carry no algebraic screen at all (any parity, any top
        bit), so each candidate costs a modpow — the scan takes
        windows at minimal-encoding lengths (w and w-1 bytes: >99% of
        exponents), skips low-entropy windows, and stops when the
        shared budget runs dry.
        """
        half = self.half_bytes
        full = 2 * half
        distinct_floor = min(8, half)
        seen: set = set()
        plans = [
            ("private-exponent-window", full, True),
            ("private-exponent-window", max(1, full - 1), True),
            ("crt-exponent-window", half, False),
            ("crt-exponent-window", max(1, half - 1), False),
        ]
        for method, length, need_odd in plans:
            for lo, hi in intervals:
                for off in range(lo, hi - length + 1):
                    if not data[off]:
                        continue
                    if need_odd and not (data[off + length - 1] & 1):
                        continue
                    window = bytes(data[off : off + length])
                    if window in seen:
                        continue
                    seen.add(window)
                    if len(set(window)) < distinct_floor:
                        continue
                    key = self._try_value(
                        int.from_bytes(window, "big"), spend
                    )
                    if key is not None:
                        hits.append(
                            StructuralHit(method, base + off, length)
                        )
                        return key
        return None

    # ------------------------------------------------------------------
    # entry point
    # ------------------------------------------------------------------
    def scan_segments(
        self, segments: Sequence[bytes], bases: Optional[Sequence[int]] = None,
    ) -> PredictResult:
        """Scan disclosed data and try to rebuild the private key.

        ``segments`` are scanned independently (an n_tty dump's two
        segments are not physically adjacent, so no real structure
        straddles them); ``bases`` gives each segment's offset in the
        disclosed stream for hit coordinates (defaults to cumulative).
        Cheap passes (DER walk, PEM mining, factor windows) always run
        to completion; the budgeted CRT pass stops at first success.
        """
        if bases is None:
            bases, position = [], 0
            for segment in segments:
                bases.append(position)
                position += len(segment)
        budget = [self.crt_budget]

        def spend() -> bool:
            if budget[0] <= 0:
                return False
            budget[0] -= 1
            return True

        hits: List[StructuralHit] = []
        recovered: Optional[RsaKey] = None
        prepared = [
            (segment, nonzero_intervals(segment), basis)
            for segment, basis in zip(segments, bases)
            if segment
        ]
        for segment, intervals, basis in prepared:
            key = self._walk_der(segment, intervals, basis, hits)
            recovered = recovered or key
            key = self._walk_pem(segment, intervals, basis, hits, spend)
            recovered = recovered or key
            key = self._scan_factor_windows(segment, intervals, basis, hits)
            recovered = recovered or key
        if recovered is None:
            for segment, intervals, basis in prepared:
                recovered = self._scan_exponent_windows(
                    segment, intervals, basis, hits, spend
                )
                if recovered is not None:
                    break

        counts = {method: 0 for method in PREDICT_METHODS}
        for hit in hits:
            counts[hit.method] += 1
        return PredictResult(
            counts=counts,
            hits=sorted(hits, key=lambda h: (h.offset, h.method)),
            recovered_key=recovered,
            disclosed_bytes=sum(len(s) for s in segments),
            truncated=budget[0] <= 0,
        )


class NttyPredictAttack:
    """The [12] dump exploit paired with the structural analyzer."""

    def __init__(self, kernel: "Kernel", n: int, e: int) -> None:
        self.kernel = kernel
        self.predictor = StructuralPredictor(n, e)

    @property
    def feasible(self) -> bool:
        return self.kernel.ntty.vulnerable

    def run(self, rng: "DeterministicRandom") -> PredictResult:
        """One exploitation + structural scan of the dumped window."""
        start_mark = self.kernel.clock.now_us
        dump = self.kernel.ntty.dump(rng)
        result = self.predictor.scan_segments(dump.segments)
        result.coverage = dump.coverage
        result.elapsed_s = (self.kernel.clock.now_us - start_mark) / 1e6
        if self.kernel.keysan is not None:
            self.kernel.keysan.note_disclosure(
                "ntty-predict", phys_start=dump.start, length=dump.length
            )
            result.origins = self._attribute(dump, result.hits)
        return result

    def _attribute(self, dump, hits) -> Tuple[str, ...]:
        """Map hit offsets back to physical addresses and ask the
        shadow map which call sites planted those very bytes — the
        dynamic side of the containment obligation."""
        keysan = self.kernel.keysan
        size = keysan.shadow.size
        origins = set()
        for hit in hits:
            phys = (dump.start + hit.offset) % size
            span = min(hit.length, size - phys)
            for run in keysan.shadow.runs_in(phys, span):
                origins.add(keysan.origin_name(run.origin_id))
            remainder = hit.length - span
            if remainder > 0:
                for run in keysan.shadow.runs_in(0, remainder):
                    origins.add(keysan.origin_name(run.origin_id))
        return tuple(sorted(origins))


class Ext2PredictAttack:
    """The [17] directory leak paired with the structural analyzer."""

    def __init__(self, dirleak: "Ext2DirLeakAttack", n: int, e: int) -> None:
        self.dirleak = dirleak
        self.predictor = StructuralPredictor(n, e)

    @property
    def feasible(self) -> bool:
        return self.dirleak.feasible

    def run(self, num_dirs: int) -> PredictResult:
        """Harvest stale blocks, then scan them structurally."""
        start_mark = self.dirleak.kernel.clock.now_us
        disclosed = self.dirleak.harvest(num_dirs, attack="ext2-predict")
        result = self.predictor.scan_segments([disclosed])
        result.elapsed_s = (
            self.dirleak.kernel.clock.now_us - start_mark
        ) / 1e6
        return result
