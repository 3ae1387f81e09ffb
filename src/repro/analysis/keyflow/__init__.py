"""KeyFlow: whole-program static taint analysis of key material.

The third layer of the repository's correctness stack:

* **keylint** (:mod:`repro.analysis.lint`) — syntactic, single-file
  AST rules;
* **KeyFlow** (this package) — *static dataflow*: forward
  interprocedural taint from key-material sources to memory, swap,
  page-cache, logging and serialization sinks over the shared IR
  (:mod:`repro.analysis.ir`), plus a CFG scrub-on-all-paths proof
  obligation (:mod:`~repro.analysis.keyflow.scrub`);
* **KeySan** (:mod:`repro.sanitizer`) — dynamic byte-granular taint.

The taint is not computed here: it is the reserved ``TAINT`` member
of the key-material fixpoint KeyFlow shares with KeyRecon
(:mod:`repro.analysis.ir.dataflow`), decided by this package's
sources, source attributes and scrubbers.  :func:`analyze` projects
that fixpoint into ``tainted-flow`` findings and the leak set.

The load-bearing contract between the last two layers is
**dynamic ⊆ static**: every call site the runtime sanitizer ever
attributes as having moved secret bytes must be contained in KeyFlow's
statically computed leak set.  The containment regression test
(``tests/analysis/keyflow/test_containment.py``) makes the analyzer
unable to silently under-approximate what the sanitizer observes.

Entry points: :func:`analyze` (the report),
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
