"""``repro analyze``: the whole static stack over one shared IR build.

This is the one front end to the static layers, and :data:`LAYERS` is
their one registry.  It discovers and parses each file once, builds
one :class:`~repro.analysis.ir.project.Project` from that parse, and
feeds it to:

1. **keylint** — syntactic rules over the trees of that one shared
   parse, linted as the IR build reads them;
2. **KeyFlow** — interprocedural taint;
3. **KeyState** — mitigation-API typestate;
4. **KeyCount** — quantitative copy bounds;
5. **KeyRecon** — reconstructability of derived fragments;
6. **KeySpan** — symbolic exposure windows (mint→scrub distance);

then merges the SARIF logs into a single multi-run document
(:func:`repro.analysis.sarif.merge_sarif_logs`) so CI uploads one
artifact instead of six.

``layers=`` (the CLI's ``--layers keylint,keyflow,...``) selects a
subset: the IR is still built once, only the selected layers run, and
the gate verdict reflects *only* the selected layers — the lever CI
uses to split the stack across jobs without re-parsing per layer.

Gate semantics (``--check``): keylint violations fail directly (its
baseline is "zero findings in src/repro"); the IR layers fail on
baseline *drift* — a new finding or a stale suppression — against
their packaged reviewed baselines, ``analysis/<layer>/baseline.json``.
"""

from __future__ import annotations

import importlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.analysis.baseline import BaselineDrift, compare_baseline, load_baseline
from repro.analysis.ir.project import (
    REPRO_ROOT,
    ParsedFile,
    Project,
    analysis_roots,
    discover_files,
    parse_files,
)
from repro.analysis.lint import LintViolation, lint_file, render_report, render_sarif
from repro.analysis.sarif import merge_sarif_logs

ANALYSIS_ROOT = REPRO_ROOT / "analysis"

#: Stack order, for reports and the bench.  Every layer after keylint
#: is an IR layer: the package ``repro.analysis.<name>`` exposing
#: ``analyze(project=...)``, gated by ``analysis/<name>/baseline.json``.
LAYERS = ("keylint", "keyflow", "keystate", "keycount", "keyrecon", "keyspan")


def baseline_path(layer: str) -> Path:
    """The reviewed baseline shipped with an IR layer's package."""
    return ANALYSIS_ROOT / layer / "baseline.json"


def select_layers(names: Iterable[str]) -> Tuple[str, ...]:
    """Deduplicate ``names`` into stack order; none selects everything.

    Unknown names raise ValueError (exit code 2 at the CLI — bad input,
    not drift)."""
    requested = {name.strip() for name in names} - {""}
    unknown = sorted(requested - set(LAYERS))
    if unknown:
        raise ValueError(
            f"unknown analysis layers: {', '.join(unknown)} "
            f"(choose from {', '.join(LAYERS)})"
        )
    return tuple(name for name in LAYERS if name in requested) or LAYERS


def parse_layers(spec: Optional[str]) -> Tuple[str, ...]:
    """Parse a ``--layers`` value ("keylint,keyflow") into stack order."""
    return select_layers(spec.split(",") if spec else ())


@dataclass
class AnalyzeResult:
    """Everything one combined run produced."""

    files: List[str]
    function_count: int
    violations: List[LintViolation]
    #: tool name -> report object (KeyFlowReport/KeyStateReport/…).
    reports: Dict[str, object]
    #: tool name -> BaselineDrift (only populated by ``check=True``).
    drifts: Dict[str, BaselineDrift] = field(default_factory=dict)
    #: The layers this run actually executed, in stack order.
    layers: Tuple[str, ...] = LAYERS

    @property
    def ran_tools(self) -> Tuple[str, ...]:
        """The baseline-gated layers that ran, in stack order."""
        return tuple(name for name in self.layers if name != "keylint")

    @property
    def ok(self) -> bool:
        if "keylint" in self.layers and self.violations:
            return False
        return all(drift.ok for drift in self.drifts.values())

    # ------------------------------------------------------------------
    def to_sarif(self) -> Dict[str, object]:
        """One merged multi-run SARIF 2.1.0 document for the stack."""
        logs = []
        if "keylint" in self.layers:
            logs.append(render_sarif(self.violations))
        logs.extend(self.reports[name].to_sarif() for name in self.ran_tools)
        return merge_sarif_logs(logs)

    def to_json_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "tool": "analyze",
            "layers": list(self.layers),
            "files": list(self.files),
            "functions": self.function_count,
        }
        if "keylint" in self.layers:
            payload["keylint"] = {
                "violations": [
                    {
                        "path": v.path,
                        "line": v.line,
                        "col": v.col,
                        "rule": v.rule,
                        "message": v.message,
                    }
                    for v in self.violations
                ],
            }
        payload.update(
            {name: self.reports[name].to_json_dict() for name in self.ran_tools}
        )
        return payload

    def render(self, fmt: str) -> str:
        """The report as ``repro analyze --format fmt`` prints it."""
        if fmt == "sarif":
            return json.dumps(self.to_sarif(), indent=2) + "\n"
        if fmt == "json":
            return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"
        return self.render_text()

    def render_text(self) -> str:
        lines: List[str] = []
        lines.append("repro analyze: the static stack over one IR build")
        lines.append(
            f"  shared IR build: {len(self.files)} files, "
            f"{self.function_count} functions"
        )
        lines.append(f"  layers: {', '.join(self.layers)}")
        if "keylint" in self.layers:
            lines.append("")
            lines.append("== keylint ==")
            lines.append(render_report(self.violations))
        for name in self.ran_tools:
            lines.append("")
            lines.append(f"== {name} ==")
            lines.append(self.reports[name].render_text().rstrip("\n"))
        if self.drifts:
            lines.append("")
            lines.append("== baseline gates ==")
            for name in sorted(self.drifts):
                drift = self.drifts[name]
                verdict = "ok" if drift.ok else "DRIFT"
                lines.append(f"  {name}: {verdict}")
                rendered = drift.render_text().rstrip("\n")
                if rendered:
                    lines.extend("    " + l for l in rendered.splitlines())
            lines.append(
                "  => " + ("all gates green" if self.ok else "GATE FAILURE")
            )
        return "\n".join(lines) + "\n"


def _lint_each(
    parsed: Iterable[ParsedFile], linted: List[Tuple[str, List[LintViolation]]]
) -> Iterator[ParsedFile]:
    """Pass ``parsed`` through, appending each file's keylint violations
    to ``linted`` under its path (the report's sort key)."""
    for record in parsed:
        found = lint_file(record.path, root=record.root, parsed=record)
        linted.append((record.path.as_posix(), found))
        yield record


def run_all(
    paths: Optional[Sequence[Path]] = None,
    files: Optional[Sequence[Tuple[Path, Path]]] = None,
    check: bool = False,
    layers: Optional[Sequence[str]] = None,
) -> AnalyzeResult:
    """Run the selected layers (default: all six) over one IR build."""
    selected = select_layers(layers or ())

    roots = analysis_roots(paths)
    pairs = list(files) if files is not None else discover_files(roots)
    parsed: Iterable[ParsedFile] = parse_files(pairs)
    # keylint lints each tree as the IR build consumes it, so every file
    # is parsed once and no tree outlives its turn in the stream.
    linted: List[Tuple[str, List[LintViolation]]] = []
    if "keylint" in selected:
        parsed = _lint_each(parsed, linted)
    project = Project.load(roots, parsed=parsed)

    violations: List[LintViolation] = []
    for _, found in sorted(linted, key=lambda item: item[0]):
        violations.extend(found)

    reports: Dict[str, object] = {}
    drifts: Dict[str, BaselineDrift] = {}
    for name in selected:
        if name == "keylint":
            continue
        # Looked up on every call, so a wrapper installed on the
        # package's ``analyze`` (a tracer, a test double) sees the run.
        analyze = importlib.import_module(f"repro.analysis.{name}").analyze
        report = analyze(project=project)
        reports[name] = report
        if check:
            baseline = load_baseline(baseline_path(name))
            drifts[name] = compare_baseline(report, baseline, tool=name)

    return AnalyzeResult(
        files=list(project.files),
        function_count=len(project.functions),
        violations=violations,
        reports=reports,
        drifts=drifts,
        layers=selected,
    )
