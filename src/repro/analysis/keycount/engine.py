"""KeyCount engine: interprocedural copy-bound computation.

The analysis runs in three stages:

1. **Collect** (:mod:`.sites`): every function yields its copy sites
   and guard/multiplier-annotated call edges.

2. **Propagate contexts.**  A *context* is a set of ``(Count, guards)``
   pairs: how often a function's body executes under which policy
   guards.  Contexts are seeded at the deployment roots (the OpenSSH
   entry points; the connection cycle runs ``N`` times) and pushed
   along call edges by a round-based Kleene iteration::

       ctx[callee] = base[callee]  ⊕  Σ ctx[caller] × edge.multiplier

   with edge guards unioned in (contradictory unions are dead paths
   and dropped).  The Count domain saturates and the per-function
   context set is capped — overflow merges pairs by *dropping guards*,
   which only enlarges the bound — so the iteration is monotone on a
   finite-height lattice and converges deterministically regardless of
   file or worklist order.  Functions unreachable from the deployment
   roots (the Apache app, demo scenarios, the test tree) keep empty
   contexts and contribute nothing: the bound is a property of the
   *deployment*, exactly as the paper measures one configured server.

3. **Evaluate per level.**  For each ProtectionLevel the policy fixes
   every guard flag.  A site contributes ``Σ context × multiplier``
   over the context pairs whose guards the policy satisfies — unless
   the policy enables a flag in the site's ``killed_by`` set (the
   mitigation provably eliminates that copy) or disables one of its
   ``requires`` flags (the copy is never created).  Contributions are
   summed per memory-region class, with region-level backstops (the
   kernel zero-on-free patch clears every freed frame).

Soundness direction: every approximation rounds *up* — coarse call
resolution fans contexts into all candidates, unknown loops multiply
by ``N``, saturation widens to ⊤.  The dynamic ≤ static containment
regression depends on this and runs at all six levels.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from ..findings import Finding, sort_findings
from ..ir.project import Project
from .config import DEFAULT_CONFIG, REGION_CLASSES, KeyCountConfig
from .domain import Count
from .findings import LADDER, KeyCountReport
from .sites import (
    CallEdge,
    CopySite,
    GuardSet,
    collect_function,
    guards_consistent_with,
    guards_contradictory,
)

REPRO_ROOT = Path(__file__).resolve().parents[2]

#: One function's execution contexts: (count, guards) pairs.
Context = Tuple[Count, GuardSet]


def _normalize(pairs: Sequence[Context], cap: int) -> Tuple[Context, ...]:
    """Merge pairs with identical guard sets, sort canonically, and cap
    the group count (overflow merges into the guard-free group — fewer
    guards survive more policies, so capping only enlarges bounds)."""
    merged: Dict[GuardSet, Count] = {}
    for count, guards in pairs:
        if count.is_zero or guards_contradictory(guards):
            continue
        merged[guards] = merged.get(guards, Count.zero()).add(count)
    groups = sorted(
        merged.items(), key=lambda item: (len(item[0]), sorted(item[0]))
    )
    if len(groups) > cap:
        kept, overflow = groups[: cap - 1], groups[cap - 1 :]
        spill = Count.zero()
        for _, count in overflow:
            spill = spill.add(count)
        groups = sorted(
            kept + [(frozenset(), spill)],
            key=lambda item: (len(item[0]), sorted(item[0])),
        )
        # re-merge in case a guard-free group already existed
        return _normalize(
            [(count, guards) for guards, count in groups], cap
        )
    return tuple((count, guards) for guards, count in groups)


def _propagate_contexts(
    project: Project,
    edges_by_caller: Dict[str, List[CallEdge]],
    config: KeyCountConfig,
) -> Dict[str, Tuple[Context, ...]]:
    names = project.sorted_names()
    base: Dict[str, List[Context]] = {}
    for name in names:
        for suffix, count in sorted(config.deployment.items()):
            if name == suffix or name.endswith("." + suffix):
                base.setdefault(name, []).append((count, frozenset()))
    contexts: Dict[str, Tuple[Context, ...]] = {
        name: _normalize(pairs, config.context_cap)
        for name, pairs in base.items()
    }
    for _ in range(config.max_rounds):
        incoming: Dict[str, List[Context]] = {
            name: list(pairs) for name, pairs in base.items()
        }
        for caller in names:
            caller_ctx = contexts.get(caller)
            if not caller_ctx:
                continue
            for edge in edges_by_caller.get(caller, ()):
                for count, guards in caller_ctx:
                    merged_guards = guards | edge.guards
                    if guards_contradictory(merged_guards):
                        continue
                    scaled = count.mul(edge.multiplier)
                    if scaled.is_zero:
                        continue
                    incoming.setdefault(edge.callee, []).append(
                        (scaled, merged_guards)
                    )
        new_contexts = {
            name: _normalize(pairs, config.context_cap)
            for name, pairs in sorted(incoming.items())
        }
        new_contexts = {
            name: pairs for name, pairs in new_contexts.items() if pairs
        }
        if new_contexts == contexts:
            break
        contexts = new_contexts
    return contexts


def _site_pairs(
    site: CopySite, contexts: Dict[str, Tuple[Context, ...]]
) -> List[Context]:
    """Deployment-weighted (count, guards) pairs for one site: each
    context × the site's loop multiplier, with site guards merged."""
    pairs: List[Context] = []
    for count, guards in contexts.get(site.function, ()):
        merged = guards | site.guards
        if guards_contradictory(merged):
            continue
        scaled = count.mul(site.multiplier)
        if not scaled.is_zero:
            pairs.append((scaled, merged))
    return pairs


def _site_weight(pairs: Sequence[Context]) -> Count:
    total = Count.zero()
    for count, _ in pairs:
        total = total.add(count)
    return total


def _evaluate_bounds(
    weighted_sites: Sequence[Tuple[CopySite, List[Context]]],
    config: KeyCountConfig,
) -> Dict[str, Dict[str, Count]]:
    from repro.core.protection import ProtectionLevel, policy_for

    bounds: Dict[str, Dict[str, Count]] = {}
    for level_name in LADDER:
        policy = policy_for(ProtectionLevel[level_name])
        per_region = {region: Count.zero() for region in REGION_CLASSES}
        for site, pairs in weighted_sites:
            spec = config.kind_specs[site.kind]
            if any(getattr(policy, flag) for flag in spec.killed_by):
                continue
            if any(not getattr(policy, flag) for flag in spec.requires):
                continue
            contribution = Count.zero()
            for count, guards in pairs:
                if guards_consistent_with(guards, policy):
                    contribution = contribution.add(count)
            if contribution.is_zero:
                continue
            for region in spec.regions:
                if any(
                    getattr(policy, flag)
                    for flag in config.region_kills.get(region, ())
                ):
                    continue
                per_region[region] = per_region[region].add(contribution)
        bounds[level_name] = per_region
    return bounds


def _describe_site(
    site: CopySite, weight: Count, config: KeyCountConfig
) -> str:
    spec = config.kind_specs[site.kind]
    guard_text = ""
    if site.guards:
        rendered = ", ".join(
            f"{'' if polarity else '!'}{flag}"
            for flag, polarity in sorted(site.guards)
        )
        guard_text = f" when [{rendered}]"
    killed = ", ".join(spec.killed_by) if spec.killed_by else "nothing"
    return (
        f"{site.op}() creates up to {weight.render()} "
        f"{'/'.join(spec.regions)}-region cop"
        f"{'y' if weight == Count.one() else 'ies'} of key material"
        f"{guard_text}; killed by: {killed}"
    )


def analyze(
    paths: Optional[Sequence[Path]] = None,
    files: Optional[Sequence[Tuple[Path, Path]]] = None,
    config: KeyCountConfig = DEFAULT_CONFIG,
    initial_order: Optional[Sequence[str]] = None,
    project: Optional[Project] = None,
) -> KeyCountReport:
    """Run KeyCount and return the quantitative report.

    ``initial_order`` is accepted for API symmetry with the other
    layers (the determinism suite shuffles it); the round-based
    fixpoint is order-free, so it is ignored.  ``project`` reuses an
    already-loaded IR build (the ``repro analyze`` meta-command parses
    the tree once for every IR layer).
    """
    del initial_order  # results provably do not depend on it
    if project is None:
        roots = [Path(p) for p in paths] if paths else [REPRO_ROOT]
        project = Project.load(roots, files=files)

    sites: List[CopySite] = []
    edges_by_caller: Dict[str, List[CallEdge]] = {}
    for name in project.sorted_names():
        function_sites, function_edges = collect_function(
            project.functions[name], config
        )
        sites.extend(function_sites)
        if function_edges:
            edges_by_caller[name] = function_edges

    contexts = _propagate_contexts(project, edges_by_caller, config)

    weighted_sites: List[Tuple[CopySite, List[Context]]] = []
    findings: List[Finding] = []
    for site in sites:
        pairs = _site_pairs(site, contexts)
        weighted_sites.append((site, pairs))
        weight = _site_weight(pairs)
        findings.append(
            Finding(
                rule=site.kind,
                function=site.function,
                rel_path=site.rel_path,
                line=site.line,
                detail=f"{site.op}#{site.index}",
                message=_describe_site(site, weight, config),
            )
        )

    bounds = _evaluate_bounds(weighted_sites, config)

    return KeyCountReport(
        findings=sort_findings(findings),
        bounds=bounds,
        files=list(project.files),
        function_count=len(project.functions),
        config=config.describe(),
    )
