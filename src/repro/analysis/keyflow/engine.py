"""KeyFlow entry point: load sources, project the fixpoint, emit a report.

``analyze()`` with no paths (``None`` or ``[]``) analyzes the
installed ``repro`` package itself — the dogfood configuration used
by the CLI, the CI baseline gate, and the dynamic⊆static
containment test.

The taint itself is the ``TAINT`` member of the key-material fixpoint
shared with KeyRecon (:mod:`repro.analysis.ir.dataflow`): the leak set
is every function where ``TAINT`` is resident or a source/sink event
fires, and sink events become ``tainted-flow`` findings.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.findings import Finding, sort_findings
from repro.analysis.keyflow.config import DEFAULT_CONFIG, KeyFlowConfig
from repro.analysis.ir.dataflow import shared_fixpoint
from repro.analysis.ir.project import Project, load_project
from repro.analysis.keyflow.findings import KeyFlowReport
from repro.analysis.keyflow.scrub import check_function
from repro.analysis.keyrecon.config import DEFAULT_CONFIG as RECON_CONFIG


def analyze(
    paths: Optional[Sequence[Path]] = None,
    files: Optional[Sequence[Tuple[Path, Path]]] = None,
    config: KeyFlowConfig = DEFAULT_CONFIG,
    initial_order: Optional[Sequence[str]] = None,
    project: Optional[Project] = None,
) -> KeyFlowReport:
    """Run the full analysis and return a :class:`KeyFlowReport`.

    ``files`` and ``initial_order`` exist for the determinism tests:
    they permute file-discovery order and the interprocedural worklist
    seed; the report must be byte-identical either way.  ``project``
    reuses an already-loaded IR build (the ``repro analyze``
    meta-command parses the tree once for all layers) and the fixpoint
    memoised on it.
    """
    project = load_project(paths, files, project)

    analysis = shared_fixpoint(project, config, RECON_CONFIG, initial_order)

    findings: List[Finding] = []

    # tainted-flow: one finding per (function, sink, category), keyed
    # without line numbers so baselines survive unrelated edits.
    for name in project.sorted_names():
        result = analysis.results[name]
        info = project.functions[name]
        first_line: Dict[Tuple[str, str], int] = {}
        for event in result.taint_events:
            if event.kind != "sink":
                continue
            key = (event.name, event.category)
            if key not in first_line or event.line < first_line[key]:
                first_line[key] = event.line
        for (sink, category), line in sorted(first_line.items()):
            findings.append(
                Finding(
                    rule="tainted-flow",
                    function=name,
                    rel_path=info.rel_path,
                    line=line,
                    detail=f"{sink}:{category}",
                    message=(
                        f"key-material taint reaches {sink}() "
                        f"[{category}] in {name}"
                    ),
                )
            )

    # missing-scrub: scrub-on-all-paths over each function's CFG.
    for name in project.sorted_names():
        info = project.functions[name]
        for violation in check_function(info, analysis.cfg_for(name), config):
            findings.append(
                Finding(
                    rule="missing-scrub",
                    function=name,
                    rel_path=info.rel_path,
                    line=violation.line,
                    detail=(
                        f"{violation.variable}:{violation.materializer}:"
                        f"{violation.exit_kind}"
                    ),
                    message=(
                        f"{violation.variable} (from "
                        f"{violation.materializer}) may leave {name} "
                        f"unscrubbed on a {violation.exit_kind} path"
                    ),
                )
            )

    return KeyFlowReport(
        findings=sort_findings(findings),
        leak_set=analysis.leak_set(),
        files=list(project.files),
        function_count=len(project.functions),
        config=config.describe(),
    )
