"""What KeySpan knows about the codebase: mints, scrubs, and the cost
model.

The analysis is parameterized, not hard-coded.  Three vocabularies
drive it:

* **Mint calls** — terminals whose invocation materializes a key copy
  (the same inventory KeyCount prices, minus the swap path, which has
  no program-point mint).  One call can mint several kinds:
  ``bio_read_file`` creates both the heap PEM staging buffer and the
  page-cache copy of the key file.

* **Scrub events** — how a copy dies.  Unconditional scrubbers
  (``bn_clear_free``, ``drop_mont`` …) always end the window.  A
  ``free`` ends it only if it actually clears: ``clear=True``
  literally, ``clear=<flag>`` when the aliased policy flag is on at
  the evaluated ProtectionLevel, or any free at all once the kernel
  zero-on-free patch is active.  A ``mm.write(buf, b"\\x00"*n)``
  overwrite is a scrub for the named buffer.

* **The tick cost model** — each statement costs one abstract event
  tick; calls are priced by callee summaries except for the hot
  memory-plumbing terminals in :data:`PRIMITIVE_COSTS`, which
  get fixed constants (their internals are page loops whose trip
  counts are data sizes, not exposure-relevant control flow).  Loops
  over connection-shaped iterables (and ``while True`` serve loops)
  multiply by the symbolic ``N``; loops over data multiply by
  :data:`DEFAULT_LOOP_TRIPS`.

The deployment roots, the ladder, the guard aliases and the ``clear=``
and zero-write recognisers are shared with KeyCount in
:mod:`repro.analysis.ir.deployment`.

:class:`KeySpanConfig` holds the ablation hooks:
:meth:`KeySpanConfig.without_scrub` and
:meth:`KeySpanConfig.without_mitigation` strip one edge and the teeth
tests assert the per-level window table visibly loosens.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, Mapping, Optional, Tuple

from ..ir.deployment import DEPLOYMENT, GUARD_ALIASES

#: Column order for reports: transient kinds first, persistent last.
KIND_ORDER = (
    "crt-part",
    "pem-buffer",
    "der-buffer",
    "mont-cache",
    "pagecache-pem",
    "aligned-key-page",
)


@dataclass(frozen=True)
class WindowKind:
    """One copy kind's window semantics."""

    #: The paper result this kind models.
    paper_anchor: str
    #: Policy flags that eliminate the copy entirely (vacuous window).
    killed_by: Tuple[str, ...] = ()
    #: Policy flags that must all be on for the copy to exist.
    requires: Tuple[str, ...] = ()
    #: ``(flag, function_suffix)``: when ``flag`` is on, the scrub is
    #: guaranteed *inside* the named function (the in-library hook), so
    #: the window is bounded by that function's tick summary even
    #: though the copy escapes the minting function on the no-align
    #: CFG path.
    bounded_within: Optional[Tuple[str, str]] = None
    #: A free event may discharge this kind without a name match
    #: (method-style ``ctx.free()`` frees the object that carries it).
    match_names: bool = True
    #: The copy lives in user-addressable heap: clearing frees and
    #: zero overwrites can discharge it.  ``False`` for kernel-side
    #: copies (the page cache) no user-space scrub can reach — only an
    #: unconditional scrub terminal or a killing flag ends those.
    heap_backed: bool = True
    #: Deliberate long-lived state (the aligned key page): reported,
    #: but excluded from the transient-window ladder.
    persistent: bool = False


DEFAULT_KINDS: Dict[str, WindowKind] = {
    "crt-part": WindowKind(
        paper_anchor="§4.3 library-level solution",
        bounded_within=("lib_align", "d2i_privatekey"),
    ),
    "pem-buffer": WindowKind(
        paper_anchor="§3.1 leak L1 (temporary buffers)",
    ),
    "der-buffer": WindowKind(
        paper_anchor="§3.1 leak L1 (temporary buffers)",
    ),
    "mont-cache": WindowKind(
        paper_anchor="§3.1 leak L2 (Montgomery cache)",
        killed_by=("align_on_load",),
        match_names=False,
    ),
    "pagecache-pem": WindowKind(
        paper_anchor="§3.2 page-cache leak",
        killed_by=("o_nocache",),
        heap_backed=False,
    ),
    "aligned-key-page": WindowKind(
        paper_anchor="§4.3 aligned key region",
        requires=("align_on_load",),
        killed_by=("hw_vault",),
        persistent=True,
    ),
}

#: mint terminal -> kinds one call materializes.
MINT_CALLS: Dict[str, Tuple[str, ...]] = {
    "bn_bin2bn": ("crt-part",),
    "MontgomeryContext": ("mont-cache",),
    "bio_read_file": ("pem-buffer", "pagecache-pem"),
    "pem_decode": ("der-buffer",),
    "memalign": ("aligned-key-page",),
    "posix_memalign": ("aligned-key-page",),
}

#: unconditional scrub terminal -> kinds it discharges.
DEFAULT_SCRUB_CALLS: Dict[str, Tuple[str, ...]] = {
    "bn_clear_free": ("crt-part",),
    "rsa_free": ("crt-part", "mont-cache"),
    "drop_mont": ("mont-cache",),
    "rsa_memory_align": ("crt-part", "mont-cache"),
    "zeroize": ("crt-part", "pem-buffer", "der-buffer", "mont-cache"),
    "scrub_slot": ("crt-part", "pem-buffer", "der-buffer", "mont-cache"),
}

#: Terminals whose call is a (conditionally clearing) release.
DEFAULT_CLEARING_FREES: FrozenSet[str] = frozenset({"free"})

#: Fixed tick prices for hot memory-plumbing terminals.  Their bodies
#: loop over pages/chunks of *data*, which the event clock ticks a
#: bounded number of times per call; pricing them as constants keeps
#: callee summaries finite.  Values are calibrated against KeySan's
#: measured event counts (generous: every price is an upper bound on
#: the sanitizer hooks one call fires in the containment workloads).
PRIMITIVE_COSTS: Dict[str, int] = {
    "write": 16,
    "read": 2,
    "malloc": 4,
    "free": 16,
    "memalign": 8,
    "posix_memalign": 8,
    "mlock": 2,
    "munlock": 2,
    "mmap": 4,
    "munmap": 8,
    "create_file": 4,
    "unlink": 2,
    "int_to_bytes": 1,
    "to_bytes": 1,
    # OS-boundary and bookkeeping terminals.  Coarse name resolution
    # would otherwise drag in every same-named method (``close`` hits
    # the SSH connection teardown, ``clear`` hits the key-corpus cache)
    # and widen the modeled load path to ⊤; these are events at the
    # boundary, not key-handling control flow.
    "open": 16,
    "close": 8,
    "read_all": 16,
    "lseek": 1,
    "fstat": 2,
    "private_op": 32,
    "clear": 2,
    "exit_process": 32,
}

#: Loop iterables/tests mentioning any of these tokens multiply by the
#: symbolic connection count ``N`` instead of a constant.
SYMBOLIC_LOOP_TOKENS: FrozenSet[str] = frozenset(
    {
        "connection",
        "connections",
        "conn",
        "conns",
        "session",
        "sessions",
        "request",
        "requests",
        "client",
        "clients",
        "worker",
        "workers",
        "schedule",
        "schedules",
        "incarnation",
        "incarnations",
    }
)

#: Trip-count bound for loops over plain data (non-symbolic).
DEFAULT_LOOP_TRIPS = 16

#: Ticks charged for the kernel zero-on-free teardown backstop on the
#: exception route (the process dies, its frames are freed and zeroed —
#: bounded, but far later than an in-function scrub).
TEARDOWN_TICKS = 2048

#: Worklist iteration bound (backstop; the saturating domain converges
#: long before this).
MAX_ROUNDS = 64


@dataclass(frozen=True)
class KeySpanConfig:
    """The exposure-window engine's ablation hooks."""

    kinds: Mapping[str, WindowKind] = field(
        default_factory=lambda: dict(DEFAULT_KINDS)
    )
    scrub_calls: Mapping[str, Tuple[str, ...]] = field(
        default_factory=lambda: dict(DEFAULT_SCRUB_CALLS)
    )
    clearing_frees: FrozenSet[str] = DEFAULT_CLEARING_FREES
    guard_aliases: Mapping[str, str] = field(
        default_factory=lambda: dict(GUARD_ALIASES)
    )

    # ------------------------------------------------------------------
    # ablation hooks (the teeth tests)
    # ------------------------------------------------------------------
    def without_scrub(self, terminal: str) -> "KeySpanConfig":
        """Drop one scrub edge: the terminal no longer ends windows."""
        scrubs = {t: k for t, k in self.scrub_calls.items() if t != terminal}
        frees = frozenset(t for t in self.clearing_frees if t != terminal)
        return replace(self, scrub_calls=scrubs, clearing_frees=frees)

    def without_mitigation(self, flag: str) -> "KeySpanConfig":
        """Pretend one policy flag has no window effect."""
        kinds = {}
        for name, kind in self.kinds.items():
            bounded = kind.bounded_within
            if bounded is not None and bounded[0] == flag:
                bounded = None
            kinds[name] = replace(
                kind,
                killed_by=tuple(f for f in kind.killed_by if f != flag),
                requires=tuple(f for f in kind.requires if f != flag),
                bounded_within=bounded,
            )
        aliases = {
            name: target
            for name, target in self.guard_aliases.items()
            if target != flag
        }
        return replace(self, kinds=kinds, guard_aliases=aliases)

    def describe(self) -> Dict[str, object]:
        return {
            "mint_calls": {t: list(k) for t, k in sorted(MINT_CALLS.items())},
            "scrub_calls": {t: list(k) for t, k in sorted(self.scrub_calls.items())},
            "clearing_frees": sorted(self.clearing_frees),
            "kinds": {
                name: {
                    "killed_by": list(kind.killed_by),
                    "requires": list(kind.requires),
                    "bounded_within": (
                        list(kind.bounded_within) if kind.bounded_within else None
                    ),
                    "persistent": kind.persistent,
                    "paper_anchor": kind.paper_anchor,
                }
                for name, kind in sorted(self.kinds.items())
            },
            "primitive_costs": dict(sorted(PRIMITIVE_COSTS.items())),
            "default_loop_trips": DEFAULT_LOOP_TRIPS,
            "teardown_ticks": TEARDOWN_TICKS,
            "deployment": list(DEPLOYMENT),
        }


DEFAULT_CONFIG = KeySpanConfig()
