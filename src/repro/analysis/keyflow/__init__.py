"""KeyFlow: whole-program static taint analysis of key material.

The third layer of the repository's correctness stack:

* **keylint** (:mod:`repro.analysis.lint`) — syntactic, single-file
  AST rules;
* **KeyFlow** (this package) — *static dataflow*: a module/call-graph
  builder, per-function CFGs with exception edges, and a forward
  interprocedural taint pass from key-material sources to memory,
  swap, page-cache, logging and serialization sinks, plus a
  scrub-on-all-paths proof obligation;
* **KeySan** (:mod:`repro.sanitizer`) — dynamic byte-granular taint.

The load-bearing contract between the last two layers is
**dynamic ⊆ static**: every call site the runtime sanitizer ever
attributes as having moved secret bytes must be contained in KeyFlow's
statically computed leak set.  The containment regression test
(``tests/analysis/keyflow/test_containment.py``) makes the analyzer
unable to silently under-approximate what the sanitizer observes.

Entry points: :func:`analyze` (the engine),
:data:`~repro.analysis.keyflow.config.DEFAULT_CONFIG`, and the
``python -m repro analyze --layers keyflow`` CLI.
"""

from repro.analysis.keyflow.config import DEFAULT_CONFIG, KeyFlowConfig
from repro.analysis.keyflow.engine import analyze
from repro.analysis.keyflow.findings import Finding, KeyFlowReport

__all__ = [
    "DEFAULT_CONFIG",
    "Finding",
    "KeyFlowConfig",
    "KeyFlowReport",
    "analyze",
]
