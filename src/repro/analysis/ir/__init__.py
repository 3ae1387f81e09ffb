"""Shared static-analysis infrastructure: project model, CFGs and the
key-material fixpoint.

Every whole-program layer — KeyFlow, KeyState, KeyCount, KeyRecon and
KeySpan — runs over the *same* program representation, so their
results are directly comparable and a fix to call resolution or
exception-edge routing benefits all of them:

* :mod:`repro.analysis.ir.project` — the :class:`Project` loader:
  modules, functions named exactly like the runtime's
  ``f"{module}.{co_qualname}"``, and the name-based call graph;
* :mod:`repro.analysis.ir.cfg` — per-function control-flow graphs
  with exception edges and finally-aware abrupt-exit routing;
* :mod:`repro.analysis.ir.dataflow` — the one interprocedural
  key-material fixpoint KeyFlow and KeyRecon project their reports
  from, memoised per ``Project``;
* :mod:`repro.analysis.ir.domain` — the saturating ``const + k·N``
  domain KeyCount counts copies in and KeySpan measures windows in;
* :mod:`repro.analysis.ir.deployment` — the deployment both
  quantitative layers evaluate (roots, reachability, the ladder) and
  their shared copy-site vocabulary.

This package grew out of ``analysis/keyflow/`` when KeyState arrived.
Its dataflow engine is driven entirely by the layers' configs: what is
a source, a sink, a derivation edge or a scrubber stays with the
analyzers.
"""

from repro.analysis.ir.cfg import CFG, CFGNode, build_cfg
from repro.analysis.ir.project import (
    FunctionInfo,
    Project,
    call_terminal,
    discover_files,
    iter_own_nodes,
    module_name_for,
)

__all__ = [
    "CFG",
    "CFGNode",
    "FunctionInfo",
    "Project",
    "build_cfg",
    "call_terminal",
    "discover_files",
    "iter_own_nodes",
    "module_name_for",
]
