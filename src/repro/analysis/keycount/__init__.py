"""KeyCount: quantitative static copy-bound analysis.

The fifth — and first *quantitative* — layer of the correctness stack.
keylint, KeyFlow, and KeyState are boolean: they prove key bytes *may*
reach a sink, that mitigation calls happen in order.  KeyCount answers
the paper's actual evaluation question: **how many** copies of the
private key can be resident, per memory-region class, at each
ProtectionLevel.

It assigns every key-material copy site an abstract counter in the
saturating domain ``{0, 1, …, k, k·N, ⊤}`` (``N`` = connections),
propagates deployment contexts interprocedurally over the shared IR,
and evaluates the mitigation policy of each ProtectionLevel to a
static bound vector.  The headline obligations, enforced in CI:

* at most **one allocated copy at INTEGRATED** (the paper's headline
  result — only the page-aligned mlocked key region survives);
* the bound vector **strictly decreases down the mitigation ladder**
  NONE → KERNEL → APPLICATION → LIBRARY → INTEGRATED → HARDWARE;
* **dynamic ≤ static**: KeySan's page-grouped dynamic copy census
  never exceeds the static bound at any level;
* ablation teeth: disabling any single mitigation term in the config
  strictly loosens the bound.

Entry points: :func:`analyze` (the engine),
:data:`~repro.analysis.keycount.config.DEFAULT_CONFIG`, and the
``python -m repro analyze --layers keycount`` CLI.
"""

from repro.analysis.ir.deployment import LADDER
from repro.analysis.keycount.config import DEFAULT_CONFIG, KeyCountConfig, KindSpec
from repro.analysis.keycount.engine import analyze
from repro.analysis.keycount.findings import Finding, KeyCountReport

__all__ = [
    "DEFAULT_CONFIG",
    "Finding",
    "KeyCountConfig",
    "KeyCountReport",
    "KindSpec",
    "LADDER",
    "analyze",
]
