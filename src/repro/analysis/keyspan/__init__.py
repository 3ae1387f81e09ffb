"""KeySpan: static exposure-window analysis.

The seventh layer of the correctness stack, and the first *temporal*
one.  KeyCount bounds **how many** key copies exist; KeySpan bounds
**how long** each one lives: for every minted copy it computes a
symbolic upper bound — in abstract event ticks, ``const + k·N | ∞`` —
on the mint→scrub distance along every control path of the shared IR,
exception edges included.  A copy whose scrub does not dominate the
raise routes (no ``finally``) is a new finding class: its window is
bounded only by the kernel zero-on-free teardown backstop, or by
nothing at all below KERNEL.

The headline obligations, enforced in CI:

* the per-level window table **strictly narrows** down the mitigation
  ladder NONE → KERNEL → APPLICATION → LIBRARY → INTEGRATED →
  HARDWARE (lexicographically: fewer unbounded transient kinds, then
  smaller finite windows, then fewer persistent copies);
* at **INTEGRATED every transient copy has a constant O(1) window** —
  the temporal complement of KeyCount's one-copy bound;
* **dynamic ≤ static**: KeySan's tick-stamped per-tag exposure
  windows, measured under simulation, never exceed the static bound
  at any level;
* ablation teeth: removing a scrub edge or a mitigation term from the
  config strictly widens the table.

Entry points: :func:`analyze` (the engine),
:data:`~repro.analysis.keyspan.config.DEFAULT_CONFIG`, and the
``python -m repro analyze --layers keyspan`` CLI.
"""

from repro.analysis.keyspan.config import DEFAULT_CONFIG, KeySpanConfig, WindowKind
from repro.analysis.keyspan.domain import Ticks
from repro.analysis.keyspan.engine import analyze
from repro.analysis.keyspan.findings import LADDER, Finding, KeySpanReport

__all__ = [
    "DEFAULT_CONFIG",
    "Finding",
    "KeySpanConfig",
    "KeySpanReport",
    "LADDER",
    "Ticks",
    "WindowKind",
    "analyze",
]
