"""KeyRecon entry point: run the fixpoint, judge, emit a report.

``analyze()`` with no arguments analyzes the installed ``repro``
package itself — the dogfood configuration used by the CLI, the CI
baseline gate, and the dynamic ⊆ static containment test against the
structural attackers in :mod:`repro.attacks.predict`.

Judgment: for every function, take the union of fragments live
anywhere in it, drop the public ones, and evaluate each reconstruction
rule.  A function where any FULL_KEY rule fires gets one
``full-key-reconstructible`` finding whose detail lists *all* firing
full rules (so gaining a new reconstruction avenue is NEW drift);
PARTIAL-only functions get ``partial-reconstructible``; concentration
events become ``fragment-concentration`` findings at the call line.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.findings import Finding, sort_findings
from repro.analysis.ir.project import Project
from repro.analysis.keyrecon.config import DEFAULT_CONFIG, KeyReconConfig
from repro.analysis.keyrecon.dataflow import ReconAnalysis
from repro.analysis.keyrecon.findings import KeyReconReport

#: The package's own source tree (default analysis root).
REPRO_ROOT = Path(__file__).resolve().parents[2]


def _judge(
    fragments: frozenset, config: KeyReconConfig
) -> Tuple[List[str], List[str]]:
    """Evaluate every reconstruction rule; returns (full, partial)
    sorted rule-name lists."""
    full: List[str] = []
    partial: List[str] = []
    for rule_name in sorted(config.reconstruction_rules):
        requires_any, verdict, _why = config.reconstruction_rules[rule_name]
        if not frozenset(requires_any) & fragments:
            continue
        if verdict == "FULL_KEY":
            full.append(rule_name)
        else:
            partial.append(rule_name)
    return full, partial


def analyze(
    paths: Optional[Sequence[Path]] = None,
    files: Optional[Sequence[Tuple[Path, Path]]] = None,
    config: KeyReconConfig = DEFAULT_CONFIG,
    initial_order: Optional[Sequence[str]] = None,
    project: Optional[Project] = None,
) -> KeyReconReport:
    """Run the full analysis and return a :class:`KeyReconReport`.

    ``files`` and ``initial_order`` exist for the determinism tests:
    they permute file-discovery order and the interprocedural worklist
    seed; the report must be byte-identical either way.  ``project``
    reuses an already-loaded IR build (the ``repro analyze``
    meta-command parses the tree once for all layers).
    """
    if project is None:
        roots = [Path(p) for p in paths] if paths is not None else [REPRO_ROOT]
        project = Project.load(roots, files=files)

    analysis = ReconAnalysis(project, config)
    analysis.run(initial_order=initial_order)

    findings: List[Finding] = []
    verdicts: Dict[str, str] = {}
    inventory: Dict[str, List[str]] = {}

    reported = set(config.reported_families)
    for name in project.sorted_names():
        result = analysis.results[name]
        info = project.functions[name]
        resident = frozenset(result.resident)
        if resident:
            inventory[name] = sorted(resident)

        # The containment superset: where reconstruction-sufficient
        # material may *reside* (judged on the residency union).
        private = resident - config.public_fragments
        full, partial = _judge(private, config)
        if full:
            verdicts[name] = "FULL_KEY"
        elif partial:
            verdicts[name] = "PARTIAL"

        # Findings: where such material is *minted* — one per
        # (function, derivation family), judged on what the family's
        # events produce there.  Reviewable, unlike the 700-strong
        # residency set.
        by_family: Dict[str, Dict[str, object]] = {}
        for event in result.derivations:
            if event.family not in reported:
                continue
            entry = by_family.setdefault(
                event.family, {"adds": set(), "line": event.line}
            )
            entry["adds"].update(event.adds)
            entry["line"] = min(entry["line"], event.line)
        for family in sorted(by_family):
            produced = (
                frozenset(by_family[family]["adds"])
                - config.public_fragments
            )
            full_rules, partial_rules = _judge(produced, config)
            if full_rules:
                rule, rules = "full-key-reconstructible", full_rules
                outcome = "rebuild the full key"
            elif partial_rules:
                rule, rules = "partial-reconstructible", partial_rules
                outcome = "give partial leverage"
            else:
                continue
            findings.append(
                Finding(
                    rule=rule,
                    function=name,
                    rel_path=info.rel_path,
                    line=by_family[family]["line"],
                    detail=f"{family}:{'+'.join(rules)}",
                    message=(
                        f"{name} derives fragments "
                        f"{{{','.join(sorted(produced))}}} via {family}; "
                        f"{', '.join(rules)} {outcome} from them"
                    ),
                )
            )

        for event in result.events:
            findings.append(
                Finding(
                    rule="fragment-concentration",
                    function=name,
                    rel_path=info.rel_path,
                    line=event.line,
                    detail=f"{event.call}:{'+'.join(event.fragments)}",
                    message=(
                        f"{event.call}() in {name} coalesces fragments "
                        f"{{{','.join(event.fragments)}}} into one "
                        f"contiguous region — a single structural-attack "
                        f"window"
                    ),
                )
            )

    return KeyReconReport(
        findings=sort_findings(findings),
        reconstructible_set=sorted(verdicts),
        verdicts=verdicts,
        inventory=inventory,
        files=list(project.files),
        function_count=len(project.functions),
        config=config.describe(),
    )
