"""The KeySan runtime: source marking, taint propagation, diagnostics.

KeySan attaches to a booted :class:`~repro.kernel.kernel.Kernel` and
instruments the only mutation surface simulated RAM has — the five
:class:`~repro.mem.physmem.PhysicalMemory` mutators — plus the buddy
allocator's free path and the VM's swap-out path.  Nothing else in the
tree can change a byte of RAM, so the shadow map is exact by
construction.

**How taint enters.**  Secrets are registered once, at their source
(the six CRT parts the moment the key is generated, the PEM bytes
before the key file is ever opened).  From then on every ``write`` is
matched against a window index of the registered secrets: any write
carrying a recognisable run of secret bytes taints exactly those
bytes, tagged with the *simulated call site* that performed the write
(``repro.ssl.bn.bn_bin2bn``, ``repro.kernel.pagecache._load_page``,
``repro.kernel.vm._swap_in``, ...).  ``copy_frame`` — the COW fault
path — propagates shadow bytes directly, preserving the original
origin, and overwrites/clears always untaint.

**Why window matching is exact where it matters.**  Anchors are taken
every ``window`` bytes of each secret *plus* the prefix window, and a
matched anchor is extended to the longest matching run in both
directions; a run that ends exactly at a write's end arms a
continuation that the next write (the following page-sized chunk of
the same ``mm.write``) can resume.  Every fragment the pattern scanner
can possibly report (it needs a 20-byte pattern *prefix*) therefore
carries taint, so the oracle is a strict superset of the scanner — the
basis for `TaintReport.cross_check`.

**Why the write hook runs at C speed and stays exact.**  Three steps
keep per-write work out of Python loops without changing a single
planted byte:

* *Block prefilter.*  Let ``w`` be the narrowest anchor width and ``B``
  a block size with ``2B - 1 <= w`` (the largest power of two not above
  ``(w + 1) // 2``, so that a block reads as one machine word).  An
  anchor occurrence ``data[p:p+w']`` with ``w' >= w`` contains the block
  ``data[kB:kB+B]`` that starts at the first multiple of ``B`` at or
  after ``p``: it starts at most ``B - 1`` bytes in and ends at most
  ``2B - 1 <= w`` bytes in.  That block is a substring of the anchor.
  So a write none of whose aligned blocks is a ``B``-byte substring of
  some anchor holds no anchor, and the anchor search is skipped — the
  common case for the random and small writes that carry no secret.
* *Slice-compared extension.*  A run's reach before and after its
  anchor is the longest common suffix / prefix of the write and the
  secret at that alignment, found by a binary search over slice
  compares rather than one byte at a time.
* *One measurement per alignment.*  Runs along one alignment
  (``pos - sec_off``) are disjoint maximal segments, so an anchor hit
  before the end of a run already measured along its alignment lies in
  that run or in an earlier one, and either way ends no later than the
  ``marked_until`` mark the measured run left; it would plant nothing,
  and is skipped unmeasured.

**Why a report costs what changed.**  Closed exposure windows never
change, so each is built once and later reports extend the list.  A
tainted frame's runs are cached under its physmem generation: every
shadow mutation happens inside a ``PhysicalMemory`` mutator, after it
bumped the generation of each frame it touches, so ``runs_in`` runs
again only for frames written since the last report.  Regions are read
afresh, because alloc, free and the page cache change them without a
write.
"""

from __future__ import annotations

import sys
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import (
    TYPE_CHECKING, Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Set, Tuple,
)

from repro.sanitizer.lifecycle import LifecycleMonitor
from repro.sanitizer.report import (
    REGION_CLASS_OF,
    CopyRecord,
    ExposureWindow,
    TaintDiagnostic,
    TaintReport,
)
from repro.sanitizer.shadow import MAX_ORIGIN_ID, MAX_TAG_ID, ShadowMap, TaintRun

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.attacks.keysearch import KeyPatternSet
    from repro.crypto.rsa import RsaKey
    from repro.kernel.kernel import Kernel

#: Anchor window size: small enough that every scanner-visible fragment
#: (>= 20-byte prefix match) contains at least one anchor.
TAINT_WINDOW = 16

#: Call check_invariants() on the buddy allocator every N free events
#: observed by the sanitizer, so allocator corruption fails loudly
#: instead of silently skewing taint/scan comparisons.
INVARIANT_STRIDE = 64

#: Frames whose module should never be blamed as a taint origin.
_SITE_SKIP_PREFIXES = ("repro.mem.", "repro.sanitizer")
#: Generic access plumbing that would otherwise mask the real caller.
_SITE_SKIP_EXACT = {
    ("repro.kernel.vm", "write"),
    ("repro.kernel.vm", "read"),
    ("repro.kernel.vm", "_fault"),
    ("repro.kernel.process", "write"),
    ("repro.kernel.process", "read"),
    ("repro.kernel.syscalls", "mem_write"),
}

#: Modules holding the mitigation primitives themselves; a lifecycle
#: event is attributed to the simulated code *calling* the primitive,
#: which is the function the static KeyState findings name.
_LIFECYCLE_SKIP_MODULES = {
    "repro.ssl.rsa_st",
    "repro.ssl.engine",
    "repro.core.memory_align",
    "repro.core.hardware",
}


@dataclass(frozen=True)
class TaintTag:
    """One registered secret."""

    tag_id: int
    name: str
    secret: bytes
    #: ``(secret_offset, window_bytes)`` anchor list for fast matching.
    anchors: Tuple[Tuple[int, bytes], ...]


class FrameTaint(NamedTuple):
    """One tainted frame's shadow, as a report reads it."""

    #: The frame's physmem generation when the runs were measured.
    generation: int
    runs: List[TaintRun]
    #: Tag id -> tainted bytes, in the order the tags first appear.
    tags: Dict[int, int]
    #: Origin ids, in the order they first appear.
    origins: Tuple[int, ...]
    #: Tainted bytes in the frame.
    total: int


def _summarise(runs: Iterable[TaintRun]) -> Tuple[Dict[int, int], Tuple[int, ...], int]:
    """Per-tag byte totals, first-seen origin ids and the byte total of
    ``runs``."""
    tags: Dict[int, int] = {}
    origins: Dict[int, None] = {}
    for run in runs:
        tags[run.tag_id] = tags.get(run.tag_id, 0) + run.length
        origins[run.origin_id] = None
    return tags, tuple(origins), sum(tags.values())


def _build_anchors(secret: bytes, window: int) -> Tuple[Tuple[int, bytes], ...]:
    """Windows at stride ``window`` plus the prefix and tail windows."""
    width = min(window, len(secret))
    offsets = set(range(0, len(secret) - width + 1, width))
    offsets.add(0)
    offsets.add(len(secret) - width)
    return tuple((off, secret[off : off + width]) for off in sorted(offsets))


#: ``memoryview.cast`` format that reads one prefilter block as one
#: native unsigned word, by block size.
_BLOCK_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _block_size(width: int) -> int:
    """Largest word-sized block ``B`` with ``2B - 1 <= width``."""
    block = 8
    while 2 * block - 1 > width:
        block //= 2
    return block


def _blocks(data: bytes, block: int) -> memoryview:
    """``data``'s ``block``-aligned whole blocks, one word each."""
    usable = len(data) - len(data) % block
    return memoryview(data)[:usable].cast(_BLOCK_FORMATS[block])


def _common_prefix(data: bytes, start: int, secret: bytes, sec_start: int) -> int:
    """Length of the common prefix of ``data[start:]`` and
    ``secret[sec_start:]``, by binary search over slice compares."""
    lo, hi = 0, min(len(data) - start, len(secret) - sec_start)
    if data[start : start + hi] == secret[sec_start : sec_start + hi]:
        return hi
    while hi - lo > 1:  # lo matches, hi does not
        mid = (lo + hi) // 2
        if data[start : start + mid] == secret[sec_start : sec_start + mid]:
            lo = mid
        else:
            hi = mid
    return lo


def _common_suffix(data: bytes, end: int, secret: bytes, sec_end: int) -> int:
    """Length of the common suffix of ``data[:end]`` and
    ``secret[:sec_end]``, by binary search over slice compares."""
    lo, hi = 0, min(end, sec_end)
    if data[end - hi : end] == secret[sec_end - hi : sec_end]:
        return hi
    while hi - lo > 1:  # lo matches, hi does not
        mid = (lo + hi) // 2
        if data[end - mid : end] == secret[sec_end - mid : sec_end]:
            lo = mid
        else:
            hi = mid
    return lo


class KeySan:
    """Runtime taint sanitizer for one simulated machine."""

    def __init__(self, kernel: "Kernel", window: int = TAINT_WINDOW,
                 invariant_stride: int = INVARIANT_STRIDE) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.kernel = kernel
        self.window = window
        self.invariant_stride = invariant_stride
        self.shadow = ShadowMap(kernel.physmem.size, kernel.physmem.page_size)
        self.tags: Dict[int, TaintTag] = {}
        self._tags_by_name: Dict[str, TaintTag] = {}
        self._origins: Dict[str, int] = {}
        self._origin_names: List[str] = ["<untracked>"]
        #: Originating call site -> {secret name -> bytes planted there}.
        self.site_stats: Dict[str, Dict[str, int]] = {}
        self.diagnostics: List[TaintDiagnostic] = []
        #: ``(tag_id, secret_offset, origin_id)`` continuations armed by
        #: a matched run that hit the end of the previous write.
        self._pending: List[Tuple[int, int, int]] = []
        #: Prefilter: block size and every block-sized substring of every
        #: anchor, as native words.  Rebuilt by ``register_secret``.
        self._block = 1
        self._anchor_blocks: FrozenSet[int] = frozenset()
        self._free_events = 0
        self.events_matched = 0
        #: Protocol-lifecycle monitor (KeyState's automata, executed).
        self.lifecycle = LifecycleMonitor()
        #: Monotone event clock: every memory-mutation hook is one tick.
        #: The dynamic counterpart of KeySpan's abstract tick costs.
        self.clock = 0
        #: ``(tag_id, page)`` -> birth tick for copies still resident.
        self._open: Dict[Tuple[int, int], int] = {}
        #: page -> tag_ids with an open window there (diff fast path).
        self._open_by_page: Dict[int, Set[int]] = {}
        #: Closed ``(tag_id, page, birth, close)`` residency intervals.
        self.closed_exposures: List[Tuple[int, int, int, int]] = []
        #: ``closed_exposures`` as windows, extended by each report.
        self._windows: List[ExposureWindow] = []
        #: Tainted frame -> its runs, valid while the frame's physmem
        #: generation holds.  Every shadow mutation happens inside one of
        #: the five PhysicalMemory mutators, after it bumped the
        #: generation of each frame it touches, so a frame whose
        #: generation did not move has the shadow it had.
        self._frame_taint: Dict[int, FrameTaint] = {}

    # ------------------------------------------------------------------
    # attachment
    # ------------------------------------------------------------------
    @classmethod
    def attach(cls, kernel: "Kernel", **kwargs) -> "KeySan":
        """Create a sanitizer and wire it into ``kernel``'s memory paths."""
        sanitizer = cls(kernel, **kwargs)
        kernel.physmem.sanitizer = sanitizer
        kernel.buddy.on_free = sanitizer.on_frames_freed
        kernel.keysan = sanitizer
        return sanitizer

    def detach(self) -> None:
        """Unhook from the kernel (taint state is kept for inspection)."""
        self.kernel.physmem.sanitizer = None
        self.kernel.buddy.on_free = None
        self.kernel.keysan = None

    # ------------------------------------------------------------------
    # source registration
    # ------------------------------------------------------------------
    def register_secret(self, name: str, secret: bytes) -> TaintTag:
        """Declare ``secret`` as key material to be tracked from now on."""
        if not secret:
            raise ValueError("cannot register an empty secret")
        if name in self._tags_by_name:
            raise ValueError(f"secret {name!r} already registered")
        tag_id = len(self.tags) + 1
        if tag_id > MAX_TAG_ID:
            raise ValueError(f"too many registered secrets (max {MAX_TAG_ID})")
        tag = TaintTag(tag_id, name, bytes(secret),
                       _build_anchors(bytes(secret), self.window))
        self.tags[tag_id] = tag
        self._tags_by_name[name] = tag
        self._build_prefilter()
        return tag

    def _build_prefilter(self) -> None:
        anchors = [window for tag in self.tags.values() for _, window in tag.anchors]
        block = _block_size(min(map(len, anchors)))
        self._block = block
        self._anchor_blocks = frozenset(
            word
            for window in anchors
            for start in range(len(window) - block + 1)
            for word in _blocks(window[start : start + block], block)
        )

    def register_key(self, key: "RsaKey", pem: bytes, prefix: str = "") -> None:
        """Register the paper's sensitive material for one RSA key: the
        six CRT parts (as their big-endian BIGNUM byte strings) and the
        full PEM encoding.

        ``prefix`` namespaces the tag names (``"gen3."`` gives
        ``gen3.d``, ``gen3.pem``, ...) so several key *incarnations* can
        be tracked on one machine — the basis of the supervisor's
        cross-incarnation post-mortem audit, which asks whether any
        bytes tagged with a **dead** incarnation's prefix still exist.
        """
        self.register_secret(prefix + "d", key.d_bytes())
        self.register_secret(prefix + "p", key.p_bytes())
        self.register_secret(prefix + "q", key.q_bytes())
        from repro.crypto.rsa import int_to_bytes

        self.register_secret(prefix + "dmp1", int_to_bytes(key.dmp1))
        self.register_secret(prefix + "dmq1", int_to_bytes(key.dmq1))
        self.register_secret(prefix + "iqmp", int_to_bytes(key.iqmp))
        self.register_secret(prefix + "pem", pem)

    # ------------------------------------------------------------------
    # exposure clock
    # ------------------------------------------------------------------
    def note_birth(self, tag_id: int, page: int) -> None:
        """A secret's bytes appeared in ``page``: open a window, stamped
        with the current tick."""
        key = (tag_id, page)
        if key in self._open:
            return
        self._open[key] = self.clock
        self._open_by_page.setdefault(page, set()).add(tag_id)

    def note_scrub(self, tag_id: int, page: int) -> None:
        """The last of a secret's bytes left ``page``: close its window
        at the current tick."""
        birth = self._open.pop((tag_id, page), None)
        if birth is None:
            return
        open_here = self._open_by_page.get(page)
        if open_here is not None:
            open_here.discard(tag_id)
            if not open_here:
                del self._open_by_page[page]
        self.closed_exposures.append((tag_id, page, birth, self.clock))

    def _sync_exposures(self, addr: int, length: int) -> None:
        """Diff the per-page tag population against the open-window
        table for every page a mutation touched.  Cheap in the common
        case: an untainted page with no open windows is one probe."""
        if length <= 0:
            return
        page_size = self.kernel.physmem.page_size
        first = addr // page_size
        last = (addr + length - 1) // page_size
        for page in range(first, last + 1):
            present = self.shadow.tags_in(page * page_size, page_size)
            open_here = self._open_by_page.get(page)
            if open_here is not None:
                for tag_id in tuple(open_here - present):
                    self.note_scrub(tag_id, page)
            for tag_id in present:
                self.note_birth(tag_id, page)

    # ------------------------------------------------------------------
    # call-site attribution
    # ------------------------------------------------------------------
    def _call_site(self) -> str:
        """First frame above the memory plumbing — the simulated caller
        that actually moved the secret (or the test/driver doing so)."""
        frame = sys._getframe(2)
        while frame is not None:
            module = frame.f_globals.get("__name__", "")
            if not module.startswith(_SITE_SKIP_PREFIXES) and \
                    (module, frame.f_code.co_name) not in _SITE_SKIP_EXACT:
                return f"{module}.{frame.f_code.co_qualname}"
            frame = frame.f_back
        return "<external>"

    def _lifecycle_site(self) -> str:
        """First frame above the mitigation primitive — the simulated
        caller whose ordering the event describes (and the function a
        matching KeyState finding names)."""
        frame = sys._getframe(2)
        while frame is not None:
            module = frame.f_globals.get("__name__", "")
            if not module.startswith(_SITE_SKIP_PREFIXES) and \
                    module not in _LIFECYCLE_SKIP_MODULES:
                return f"{module}.{frame.f_code.co_qualname}"
            frame = frame.f_back
        return "<external>"

    def note_lifecycle(self, protocol: str, key: object, event: str) -> None:
        """Record one mitigation-API lifecycle event (never raises)."""
        self.lifecycle.note(protocol, key, event, self._lifecycle_site())

    def _origin_id(self, site: str) -> int:
        origin = self._origins.get(site)
        if origin is None:
            if len(self._origin_names) > MAX_ORIGIN_ID:
                return MAX_ORIGIN_ID  # interning table full; collapse the tail
            origin = len(self._origin_names)
            self._origins[site] = origin
            self._origin_names.append(site)
        return origin

    def origin_name(self, origin_id: int) -> str:
        if 0 <= origin_id < len(self._origin_names):
            return self._origin_names[origin_id]
        return "<unknown>"

    def _note_planted(self, site: str, tag: TaintTag, count: int) -> None:
        per_site = self.site_stats.setdefault(site, {})
        per_site[tag.name] = per_site.get(tag.name, 0) + count

    def observed_sites(self, prefix: str = "repro.") -> List[str]:
        """Every call site the sanitizer has attributed secret bytes to:
        planting sites (``site_stats``) plus every diagnostic *origin*.

        Trigger sites are deliberately excluded — a trigger (the free,
        the swap-out, the attack read) is a control event at the site
        that *exposed* the bytes, not a function through which secret
        data flowed.  The result is the dynamic side of the
        dynamic ⊆ static containment check against KeyFlow's leak set;
        ``prefix`` drops synthetic attributions (``attack:*``,
        test harness frames) that no static view of the package source
        could contain.
        """
        sites = set(self.site_stats)
        for diagnostic in self.diagnostics:
            sites.update(diagnostic.origins)
        return sorted(site for site in sites if site.startswith(prefix))

    # ------------------------------------------------------------------
    # PhysicalMemory hooks
    # ------------------------------------------------------------------
    def on_write(self, addr: int, data: bytes) -> None:
        """A write lands: old taint dies, secret-bearing bytes taint."""
        self.clock += 1
        length = len(data)
        pending, self._pending = self._pending, []
        self.shadow.clear_range(addr, length)
        if not self.tags or data.count(0) == length:
            self._sync_exposures(addr, length)
            return
        # Continuations: the previous write ended mid-secret; if this
        # write picks up exactly where it left off (the next page-sized
        # chunk of one mm.write), extend the same taint run.
        for tag_id, sec_off, origin_id in pending:
            tag = self.tags[tag_id]
            n = min(len(tag.secret) - sec_off, length)
            if n > 0 and data[:n] == tag.secret[sec_off : sec_off + n]:
                self.shadow.set_range(addr, n, tag_id, origin_id)
                self._note_planted(self.origin_name(origin_id), tag, n)
                self.events_matched += 1
                if n == length and sec_off + n < len(tag.secret):
                    self._pending.append((tag_id, sec_off + n, origin_id))
        # Anchor matching, skipped unless an aligned block of the write is
        # a piece of some anchor (exact: see the module docstring).
        if not self._anchor_blocks.isdisjoint(_blocks(data, self._block)):
            self._match_anchors(addr, data)
        self._sync_exposures(addr, length)

    def _match_anchors(self, addr: int, data: bytes) -> None:
        """Anchor matching: find any recognisable run of secret bytes."""
        site: Optional[str] = None
        length = len(data)
        for tag in self.tags.values():
            secret = tag.secret
            marked_until = -1
            # alignment ``pos - sec_off`` -> end of the last run measured
            reach: Dict[int, int] = {}
            for sec_off, window in tag.anchors:
                width = len(window)
                pos = data.find(window)
                while pos != -1:
                    shift = pos - sec_off
                    if pos >= reach.get(shift, 0):
                        begin = pos - _common_suffix(data, pos, secret, sec_off)
                        end = pos + width
                        k = sec_off + width
                        grown = _common_prefix(data, end, secret, k)
                        end += grown
                        k += grown
                        reach[shift] = end
                        if end > marked_until:  # skip runs other anchors found
                            if site is None:
                                site = self._call_site()
                            origin_id = self._origin_id(site)
                            self.shadow.set_range(addr + begin, end - begin,
                                                  tag.tag_id, origin_id)
                            self._note_planted(site, tag, end - begin)
                            self.events_matched += 1
                            marked_until = end
                            if end == length and k < len(secret):
                                self._pending.append((tag.tag_id, k, origin_id))
                    pos = data.find(window, pos + 1)

    def on_fill(self, addr: int, length: int) -> None:
        self.clock += 1
        self.shadow.clear_range(addr, length)
        self._pending.clear()
        self._sync_exposures(addr, length)

    def on_clear_frame(self, frame: int) -> None:
        self.clock += 1
        page_size = self.kernel.physmem.page_size
        self.shadow.clear_range(frame * page_size, page_size)
        self._sync_exposures(frame * page_size, page_size)

    def on_copy_frame(self, src_frame: int, dst_frame: int) -> None:
        """Frame copy (the COW ``copy_user_highpage`` path): taint and
        origin travel with the bytes."""
        self.clock += 1
        page_size = self.kernel.physmem.page_size
        src = src_frame * page_size
        dst = dst_frame * page_size
        if self.shadow.any_in(src, page_size):
            site = self._call_site()
            for run in self.shadow.runs_in(src, page_size):
                tag = self.tags.get(run.tag_id)
                if tag is not None:
                    self._note_planted(site, tag, run.length)
            self.events_matched += 1
        self.shadow.copy_range(src, dst, page_size)
        self._sync_exposures(dst, page_size)

    # ------------------------------------------------------------------
    # allocator / VM hooks
    # ------------------------------------------------------------------
    def _tag_name(self, tag_id: int) -> str:
        tag = self.tags.get(tag_id)
        return tag.name if tag is not None else f"tag#{tag_id}"

    def _origin_labels(self, origins: Tuple[int, ...]) -> Tuple[str, ...]:
        return tuple(dict.fromkeys(map(self.origin_name, origins)))

    def _named(self, tags: Dict[int, int],
               origins: Tuple[int, ...]) -> Tuple[Dict[str, int], Tuple[str, ...]]:
        """A summary's tag and origin ids, as names."""
        named: Dict[str, int] = {}
        for tag_id, count in tags.items():
            name = self._tag_name(tag_id)
            named[name] = named.get(name, 0) + count
        return named, self._origin_labels(origins)

    def _range_summary(self, addr: int, length: int) -> Tuple[Dict[str, int], Tuple[str, ...]]:
        tags, origins, _ = _summarise(self.shadow.runs_in(addr, length))
        return self._named(tags, origins)

    def on_frames_freed(self, head: int, order: int, cleared: bool) -> None:
        """Buddy free path: a tainted frame entering a free list without
        ``clear_frame`` is the paper's core leak, caught in the act."""
        self.clock += 1  # the free itself is an event (shadow unchanged)
        self._free_events += 1
        if self.invariant_stride and self._free_events % self.invariant_stride == 0:
            self.kernel.buddy.check_invariants()
        if cleared:
            return  # zero-on-free already scrubbed (and untainted) it
        page_size = self.kernel.physmem.page_size
        if not self.shadow.any_in(head * page_size, (1 << order) * page_size):
            return  # one block-level probe gates the per-frame walk
        for frame in range(head, head + (1 << order)):
            base = frame * page_size
            if not self.shadow.any_in(base, page_size):
                continue
            tags, origins = self._range_summary(base, page_size)
            self.diagnostics.append(
                TaintDiagnostic(
                    kind="freed-tainted-frame",
                    frame=frame,
                    tags=tags,
                    origins=origins,
                    trigger_site=self._call_site(),
                    detail="freed to the buddy/hot lists without clear_frame",
                )
            )

    def note_swap_out(self, frame: int, slot: int) -> None:
        """Called by the VM just after a page's content went to swap."""
        self.clock += 1
        page_size = self.kernel.physmem.page_size
        base = frame * page_size
        if not self.shadow.any_in(base, page_size):
            return
        tags, origins = self._range_summary(base, page_size)
        self.diagnostics.append(
            TaintDiagnostic(
                kind="swap-out-tainted",
                frame=frame,
                tags=tags,
                origins=origins,
                trigger_site=self._call_site(),
                detail=f"page written to swap slot {slot}; the slot is never "
                       f"scrubbed and the vacated frame is freed uncleared",
            )
        )

    def note_disclosure(self, attack: str, data: Optional[bytes] = None,
                        phys_start: Optional[int] = None,
                        length: Optional[int] = None) -> int:
        """An attack primitive disclosed memory; record what it got.

        Pass ``phys_start``/``length`` for window attacks over physical
        RAM (the shadow map is consulted directly), or ``data`` for
        attacks that exfiltrate via a device image (value-matched
        against the registered secrets).  Returns the number of tainted
        bytes the attack obtained.
        """
        tags: Dict[str, int] = {}
        origins: Tuple[str, ...] = ()
        if phys_start is not None:
            if length is None:
                raise ValueError("phys_start requires length")
            # The n_tty window wraps at the top of RAM; split it into
            # at most two in-bounds ranges.
            size = self.shadow.size
            length = min(length, size)
            start = phys_start % size
            ranges = [(start, min(length, size - start))]
            if length > size - start:
                ranges.append((0, length - (size - start)))
            origin_list: List[str] = []
            for range_start, range_len in ranges:
                if not self.shadow.any_in(range_start, range_len):
                    continue
                range_tags, range_origins = self._range_summary(range_start, range_len)
                for name, count in range_tags.items():
                    tags[name] = tags.get(name, 0) + count
                for origin in range_origins:
                    if origin not in origin_list:
                        origin_list.append(origin)
            origins = tuple(origin_list)
        elif data is not None:
            for tag in self.tags.values():
                secret = tag.secret
                pos = data.find(secret)
                count = 0
                while pos != -1:
                    count += len(secret)
                    pos = data.find(secret, pos + len(secret))
                if count:
                    tags[tag.name] = count
        else:
            raise ValueError("note_disclosure needs data or phys_start")
        stolen = sum(tags.values())
        if stolen:
            self.diagnostics.append(
                TaintDiagnostic(
                    kind="disclosure",
                    frame=(None if phys_start is None
                           else phys_start // self.kernel.physmem.page_size),
                    tags=tags,
                    origins=origins,
                    trigger_site=f"attack:{attack}",
                    detail=f"attack primitive read {stolen} tainted bytes",
                )
            )
        return stolen

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def tags_with_prefix(self, prefix: str) -> List[TaintTag]:
        """Registered tags whose name starts with ``prefix``."""
        return [
            tag for _, tag in sorted(self._tags_by_name.items())
            if tag.name.startswith(prefix)
        ]

    def census_by_prefix(self, prefix: str) -> Dict[str, Dict[str, int]]:
        """Tainted-byte census restricted to one incarnation's tags.

        Returns ``region -> {tag name -> tainted bytes}`` for every tag
        whose name starts with ``prefix``.  Run against a *dead*
        incarnation's prefix, a non-empty result is the ground truth of
        a cross-incarnation leak: bytes of a key whose owner has exited
        still exist somewhere in RAM, attributed by region.
        """
        census: Dict[str, Dict[str, int]] = {}
        for frame, taint in self._tainted_frames().items():
            region = self._region_of(frame)
            for tag_id, count in taint.tags.items():
                tag = self.tags.get(tag_id)
                if tag is None or not tag.name.startswith(prefix):
                    continue
                per_region = census.setdefault(region, {})
                per_region[tag.name] = per_region.get(tag.name, 0) + count
        return census

    def _tainted_frames(self) -> Dict[int, FrameTaint]:
        """Every tainted frame's :class:`FrameTaint`, in address order;
        ``runs_in`` runs again only for frames written since the last
        call."""
        physmem = self.kernel.physmem
        page_size = physmem.page_size
        cached = self._frame_taint
        frames: Dict[int, FrameTaint] = {}
        for start, length in self.shadow.iter_tainted_chunks():
            frame = start // page_size
            generation = physmem.frame_generation(frame)
            taint = cached.get(frame)
            if taint is None or taint.generation != generation:
                runs = self.shadow.runs_in(start, length)
                taint = FrameTaint(generation, runs, *_summarise(runs))
            frames[frame] = taint
        self._frame_taint = frames
        return frames

    def _region_of(self, frame: int) -> str:
        page = self.kernel.page(frame)
        if page.reserved:
            return "reserved"
        if page.in_pagecache:
            return "pagecache"
        if page.anonymous:
            return "user"
        if page.allocated:
            return "kernel_buffer"
        return "free"

    def report(self, patterns: Optional["KeyPatternSet"] = None) -> TaintReport:
        """Build the ground-truth report for the machine's current state.

        ``patterns`` (normally the attacker's
        :class:`~repro.attacks.keysearch.KeyPatternSet`) selects which
        byte patterns the full/untracked copy census uses, so the
        numbers are directly comparable with a
        :class:`~repro.attacks.scanner.ScanReport`.  Each pattern is
        searched once, sparsely, as the scanner does (no RAM copy).
        """
        physmem = self.kernel.physmem
        page_size = physmem.page_size
        report = TaintReport()
        report.site_table = {
            site: dict(tags) for site, tags in self.site_stats.items()
        }
        report.diagnostics = list(self.diagnostics)
        report.clock = self.clock

        # Exposure windows: closed intervals plus whatever is still open.
        # Closed ones never change, so each is built once.
        windows = self._windows
        windows.extend(
            ExposureWindow(self._tag_name(tag_id), page, birth, close)
            for tag_id, page, birth, close in self.closed_exposures[len(windows):]
        )
        report.exposure_windows = list(windows)
        report.open_exposures = [
            ExposureWindow(self._tag_name(tag_id), page, birth, None)
            for (tag_id, page), birth in sorted(self._open.items())
        ]
        tainted = self._tainted_frames()

        # Full/untracked copy census against the scanner's patterns:
        # non-overlapping hits, like the scanner's extent rule.
        full_spans: List[Tuple[int, int]] = []
        if patterns is not None:
            report._patterns = dict(patterns.patterns)
            intervals = physmem.nonzero_intervals()
            copy_pages: Dict[int, Set[str]] = {}
            for name, pattern in patterns.items():
                tracked = untracked = 0
                span_end = 0
                for pos in physmem.find_all_sparse(pattern, intervals):
                    if pos < span_end:
                        continue
                    span_end = pos + len(pattern)
                    full_spans.append((pos, span_end))
                    if self.shadow.covered(pos, len(pattern)):
                        tracked += 1
                    else:
                        untracked += 1
                    copy_pages.setdefault(pos // page_size, set()).add(name)
                report.full_copies[name] = tracked
                report.untracked_copies[name] = untracked
                # Swap-device census (the scanner cannot see the device).
                swap_count = self.kernel.swap.count_pattern(pattern)
                if swap_count:
                    report.swap_hits[name] = swap_count
            # Page-grouped copy records: the unit of the quantitative
            # dynamic census KeyCount's static bounds must dominate.
            for page in sorted(copy_pages):
                region = self._region_of(page)
                taint = tainted.get(page)
                origins = () if taint is None else self._origin_labels(taint.origins)
                report.copies.append(
                    CopyRecord(
                        page=page,
                        region=region,
                        region_class=REGION_CLASS_OF.get(region, "allocated"),
                        patterns=tuple(sorted(copy_pages[page])),
                        origins=origins,
                    )
                )

        # A run lies inside a full copy iff a span starting at or before
        # it reaches its end (bisect the starts, running max of the ends).
        full_spans.sort()
        span_starts = [start for start, _ in full_spans]
        span_reach = list(accumulate((end for _, end in full_spans), max))

        # One pass over the tainted frames: per-tag/per-region census,
        # fragments (runs inside no full copy), page-cache residue.
        for frame, taint in tainted.items():
            region = self._region_of(frame)
            for tag_id, count in taint.tags.items():
                name = self._tag_name(tag_id)
                report.by_tag[name] = report.by_tag.get(name, 0) + count
            report.by_region[region] = report.by_region.get(region, 0) + taint.total
            for run in taint.runs:
                covering = bisect_right(span_starts, run.start)
                if not covering or span_reach[covering - 1] < run.end:
                    report.fragments += 1
            page = self.kernel.page(frame)
            if page.in_pagecache:
                tags, origins = self._named(taint.tags, taint.origins)
                report.diagnostics.append(
                    TaintDiagnostic(
                        kind="pagecache-residue",
                        frame=frame,
                        tags=tags,
                        origins=origins,
                        trigger_site="repro.sanitizer.keysan.KeySan.report",
                        detail=f"file page {page.mapping} still caches key bytes",
                    )
                )
        report.tainted_bytes_total = sum(report.by_tag.values())
        return report

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"KeySan(secrets={len(self.tags)}, "
            f"tainted={self.shadow.total_tainted()}, "
            f"diagnostics={len(self.diagnostics)})"
        )
