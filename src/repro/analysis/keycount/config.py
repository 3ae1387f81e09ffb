"""KeyCount configuration: what counts as a key copy, and what kills it.

Everything the copy-bound engine treats as policy lives here as data:

* :data:`COPY_CALLS` — terminal call names that *create* a copy of key
  material, mapped to a copy *kind*;
* :data:`DEFAULT_KIND_SPECS` — per kind: which memory-region classes
  the copy occupies, and which mitigation flags *kill* it (reduce the
  static bound to zero) — each with the paper result it models;
* :data:`DEFAULT_REGION_KILLS` — region-class backstops (the kernel
  zero-on-free patch kills every freed-region copy, whatever created
  it).

The deployment roots, the ladder and the guard aliases that carry
mitigation-policy flags into library code are shared with KeySpan in
:mod:`repro.analysis.ir.deployment`.

The kill tables are deliberately asymmetric in one place, and the
asymmetry is the point of the whole analysis: ``crt-part`` copies are
killed by ``lib_align`` but **not** by ``app_align``.  The six CRT
parts are created *inside* ``d2i_privatekey``; the application-level
solution scrubs them from *outside* the library call, which is a
may-scrub across a call boundary, not a must-scrub on every path —
statically unprovable.  The library-level solution scrubs them before
``d2i`` returns, a must-path the engine can verify.  This reproduces
the paper's own argument for pushing the mitigation down into the
library, and it is why the APPLICATION bound is strictly looser than
the LIBRARY bound even though the two levels look similar dynamically.

:meth:`KeyCountConfig.without_mitigation` is the ablation hook: it
strips one flag from every kill set, and the teeth tests assert the
resulting bound is strictly looser.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Mapping, Tuple

from ..ir.deployment import DEPLOYMENT, LOOP_CONST_CAP, POLICY_FLAGS

#: Memory-region classes a copy can occupy, in report order.  ``total``
#: in reports is the sum over these.
REGION_CLASSES: Tuple[str, ...] = ("allocated", "freed", "pagecache", "swap")


@dataclass(frozen=True)
class KindSpec:
    """Static facts about one copy kind."""

    #: Region classes the copy occupies (one bound contribution each).
    regions: Tuple[str, ...]
    #: Policy flags that eliminate the copy entirely.
    killed_by: Tuple[str, ...]
    #: Flags that must be *on* for the copy to exist at all (the
    #: page-aligned key region is only allocated when alignment is).
    requires: Tuple[str, ...] = ()


COPY_CALLS: Mapping[str, str] = {
    # BN_bin2bn over each CRT part materializes a heap copy of that
    # part (d, p, q, dmp1, dmq1, iqmp).
    "bn_bin2bn": "crt-part",
    # Montgomery pre-computation caches transformed key parts.
    "MontgomeryContext": "mont-cache",
    # Reading the PEM through the buffer cache leaves a page-cache copy.
    "bio_read_file": "pagecache-pem",
    # The page-aligned consolidated key region is itself one copy.
    "memalign": "aligned-key-page",
    "posix_memalign": "aligned-key-page",
    # Reclaim writing a key page to the swap device.
    "swap_out": "swap-out",
}

DEFAULT_KIND_SPECS: Mapping[str, KindSpec] = {
    # Paper §5: scattered BIGNUM copies the in-library d2i alignment
    # eliminates (app-level scrubbing is a may-path outside the library).
    "crt-part": KindSpec(
        regions=("allocated", "freed"),
        killed_by=("lib_align", "hw_vault"),
    ),
    # Paper §5.2: RSA_blinding/Montgomery residues.
    "mont-cache": KindSpec(
        regions=("allocated", "freed"),
        killed_by=("align_on_load", "hw_vault"),
    ),
    # Paper §4.3/Table 2: the page-cache copy.
    "pagecache-pem": KindSpec(
        regions=("pagecache",),
        killed_by=("o_nocache", "hw_vault"),
    ),
    # Paper §6: exactly one allocated copy remains at the integrated level.
    "aligned-key-page": KindSpec(
        regions=("allocated",),
        killed_by=("hw_vault",),
        requires=("align_on_load",),
    ),
    # Paper §4.2/Table 1: freed-heap copies the zero-on-free kernel
    # patch eliminates (the ext2 result).
    "temp-buffer": KindSpec(
        regions=("freed",),
        killed_by=("kernel_zero", "hw_vault"),
    ),
    # Paper §4.4: swapped copies pinned out by mlock.
    "swap-out": KindSpec(
        regions=("swap",),
        killed_by=("align_on_load", "hw_vault"),
    ),
}

#: Region-class backstops applied on top of per-kind kills: the kernel
#: zero-on-free patch scrubs *every* freed frame, whatever wrote it.
DEFAULT_REGION_KILLS: Mapping[str, Tuple[str, ...]] = {
    "freed": ("kernel_zero",),
}

#: Identifier fragments marking a buffer as key material for the
#: free-without-clear (temp-buffer) heuristic.
SECRET_HINTS: FrozenSet[str] = frozenset(
    {"pem", "der", "key", "priv", "secret", "mont", "bn"}
)

#: Max guard-distinct context groups per function before merging.
CONTEXT_CAP = 8

#: Fixpoint round limit (the saturating domain converges well before
#: this; the cap is a defensive backstop).
MAX_ROUNDS = 24


@dataclass(frozen=True)
class KeyCountConfig:
    """The copy-bound engine's ablation hooks: the kill tables."""

    kind_specs: Mapping[str, KindSpec] = field(
        default_factory=lambda: dict(DEFAULT_KIND_SPECS)
    )
    region_kills: Mapping[str, Tuple[str, ...]] = field(
        default_factory=lambda: dict(DEFAULT_REGION_KILLS)
    )

    # ------------------------------------------------------------------
    def without_mitigation(self, flag: str) -> "KeyCountConfig":
        """Ablation: pretend mitigation ``flag`` kills nothing.

        The teeth tests assert the resulting bound is strictly looser —
        proof each kill term is load-bearing, mirroring the paper's
        one-mitigation-at-a-time evaluation."""
        if flag not in POLICY_FLAGS:
            raise ValueError(
                f"unknown mitigation flag {flag!r}; expected one of "
                f"{', '.join(sorted(POLICY_FLAGS))}"
            )
        specs = {
            kind: dataclasses.replace(
                spec, killed_by=tuple(f for f in spec.killed_by if f != flag)
            )
            for kind, spec in self.kind_specs.items()
        }
        kills = {
            region: tuple(f for f in flags if f != flag)
            for region, flags in self.region_kills.items()
        }
        return dataclasses.replace(self, kind_specs=specs, region_kills=kills)

    def describe(self) -> Dict[str, object]:
        return {
            "copy_calls": dict(sorted(COPY_CALLS.items())),
            "kinds": {
                kind: {
                    "regions": list(spec.regions),
                    "killed_by": list(spec.killed_by),
                    "requires": list(spec.requires),
                }
                for kind, spec in sorted(self.kind_specs.items())
            },
            "region_kills": {
                region: list(flags)
                for region, flags in sorted(self.region_kills.items())
            },
            "deployment": {
                suffix: count.render()
                for suffix, count in sorted(DEPLOYMENT.items())
            },
            "loop_const_cap": LOOP_CONST_CAP,
            "context_cap": CONTEXT_CAP,
        }


DEFAULT_CONFIG = KeyCountConfig()
