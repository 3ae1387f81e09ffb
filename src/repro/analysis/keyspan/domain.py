"""The abstract exposure-window domain: event ticks.

KeySpan bounds *how long* a minted key copy stays resident: the number
of abstract memory events between the statement that materializes the
copy (the mint) and the statement that destroys it (the scrub).  A
:class:`Ticks` is the same saturating symbolic form KeyCount proved
out —

    const + per_conn · N        (or ⊤, rendered ∞)

— inherited from :class:`repro.analysis.ir.domain.Count` with
the full lattice algebra (``add`` for sequential cost, ``mul`` for
loop multiplication, ``join`` for control-flow merge, ``covers`` for
the semantic order).  Only the saturation caps differ: a copy count
past 256 is already meaningless, but an exposure window of a few
thousand events is an ordinary mint→scrub distance, so the caps are
raised.  ⊤ keeps its KeyCount meaning — "the analysis cannot bound
this" — which for a window is exactly the paper's failure mode: the
copy may outlive the function, the request, or the process, so it
renders as ∞.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from repro.analysis.ir.domain import Count


@dataclass(frozen=True)
class Ticks(Count):
    """A saturating symbolic event distance ``const + per_conn·N``."""

    CONST_CAP: ClassVar[int] = 65536
    COEFF_CAP: ClassVar[int] = 4096

    def render(self) -> str:
        if self.top:
            return "∞"
        return super().render()
