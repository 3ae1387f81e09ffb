"""KeySpan engine: interprocedural exposure-window computation.

The analysis answers, per minted key copy and per ProtectionLevel:
*how many abstract events can elapse between the mint and the scrub?*
It runs in four stages:

1. **Cost summaries** (:mod:`.costs`): every function gets a symbolic
   tick cost (statements cost 1, calls cost callee summaries, loops
   multiply), computed bottom-up over call-graph SCCs.

2. **Mint-site collection.**  Each function's CFG (the shared
   exception-aware IR) is scanned for mint calls; the containing CFG
   node anchors the window dataflow.  A per-site *alias closure*
   (assignment/for-target name flow) ties later ``free``/zero-write
   events back to the minted buffer.

3. **Window dataflow, per site per level.**  A forward worklist pass
   from the mint node accumulates node costs along CFG edges in the
   saturating ``Ticks`` domain.  A node that scrubs the site (under
   the level's :class:`~repro.core.protection.ProtectionPolicy` —
   ``clear=True``, ``clear=<flag>`` with the flag on, any free under
   kernel zero-on-free, an unconditional scrubber, a zero overwrite)
   ends the path and records the distance.  Reaching ``exit`` with the
   obligation alive means the copy escapes the function: the window is
   ∞.  Surviving a loop back edge accumulates until saturation — an
   unscrubbed copy inside a loop is unbounded, which is exactly right.
   The *steady-state* table follows normal edges; the exception table
   additionally records the ``raise-exit`` residual, bounded by the
   configured teardown cost only when the kernel patch is on.

4. **Per-level assembly.**  A kind killed by the level's policy is
   vacuous; a kind whose ``bounded_within`` flag is on is bounded by
   the named function's summary (the in-library hook scrubs before it
   returns — the CFG alone cannot see this because the ``if align:``
   arms are merged, the same may-analysis coarseness KeyFlow accepts);
   otherwise the window is the join over the kind's deployment-
   reachable mint sites.

Soundness direction: every approximation rounds *up* — coarse call
resolution joins all candidates, unknown loops widen, saturation goes
to ⊤/∞.  The dynamic containment regression (KeySan's measured
per-tag windows ≤ these bounds) runs at all six levels.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.protection import ProtectionPolicy

from ..findings import sort_findings
from ..ir.cfg import CFG, CFGNode, build_cfg
from ..ir.deployment import (
    LADDER,
    POLICIES,
    clear_flag,
    copy_exists,
    is_wrapper,
    is_zero_bytes,
    reachable,
)
from ..ir.project import (
    FunctionInfo,
    Project,
    call_terminal,
    iter_own_nodes,
    load_project,
)
from .config import (
    DEFAULT_CONFIG,
    MAX_ROUNDS,
    MINT_CALLS,
    TEARDOWN_TICKS,
    KeySpanConfig,
    WindowKind,
)
from .costs import calls_in_expr, compute_summaries, price_call
from .domain import Ticks
from .findings import Finding, KeySpanReport


# ----------------------------------------------------------------------
# mint sites
# ----------------------------------------------------------------------
@dataclass
class MintSite:
    """One mint call, anchored to its CFG node."""

    kind: str
    function: str
    rel_path: str
    line: int
    terminal: str
    ordinal: int
    node_index: int
    #: Names the minted value flows into (alias closure seeds + flow).
    names: Set[str]


def _node_exprs(node: CFGNode) -> List[ast.AST]:
    """The ASTs a CFG node executes *itself* (no nested bodies)."""
    if node.kind in ("entry", "exit", "raise-exit", "join", "dispatch"):
        return []
    if node.kind == "branch":
        return [node.expr] if node.expr is not None else []
    stmt = node.stmt
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in stmt.items]
    if isinstance(
        stmt,
        (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.ExceptHandler),
    ):
        return []
    return [stmt] if stmt is not None else []


def _node_calls(node: CFGNode) -> List[Tuple[ast.Call, Ticks]]:
    calls: List[Tuple[ast.Call, Ticks]] = []
    for expr in _node_exprs(node):
        calls.extend(calls_in_expr(expr, Ticks.one()))
    return calls


def _expr_names(expr: Optional[ast.AST]) -> Set[str]:
    if expr is None:
        return set()
    return {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}


def _alias_closure(info: FunctionInfo, seeds: Set[str]) -> Set[str]:
    """Names the minted value can flow into inside this function, via
    assignments and for-targets (``der`` → ``der_addr``; ``transient``
    → the loop variable ``ctx``)."""
    flows: List[Tuple[Set[str], Set[str]]] = []  # (source names, targets)
    for node in iter_own_nodes(info.node):
        if isinstance(node, ast.Assign):
            targets: Set[str] = set()
            for t in node.targets:
                targets |= _expr_names(t)
            flows.append((_expr_names(node.value), targets))
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            if node.value is not None:
                flows.append((_expr_names(node.value), _expr_names(node.target)))
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            flows.append((_expr_names(node.iter), _expr_names(node.target)))
    closure = set(seeds)
    changed = True
    while changed:
        changed = False
        for sources, targets in flows:
            if sources & closure and not targets <= closure:
                closure |= targets
                changed = True
    return closure


def collect_mint_sites(info: FunctionInfo, cfg: CFG) -> List[MintSite]:
    sites: List[MintSite] = []
    ordinals: Dict[Tuple[str, str], int] = {}
    for node in cfg.nodes:
        for call, _mult in _node_calls(node):
            terminal = call_terminal(call)
            if terminal is None or terminal not in MINT_CALLS:
                continue
            if is_wrapper(info, terminal, MINT_CALLS):
                continue
            seeds: Set[str] = set()
            stmt = node.stmt
            if isinstance(stmt, ast.Assign):
                for t in stmt.targets:
                    seeds |= _expr_names(t)
            elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
                seeds |= _expr_names(stmt.target)
            names = _alias_closure(info, seeds) if seeds else set()
            for kind in MINT_CALLS[terminal]:
                key = (kind, terminal)
                ordinal = ordinals.get(key, 0)
                ordinals[key] = ordinal + 1
                sites.append(
                    MintSite(
                        kind=kind,
                        function=info.full_name,
                        rel_path=info.rel_path,
                        line=getattr(call, "lineno", node.line),
                        terminal=terminal,
                        ordinal=ordinal,
                        node_index=node.index,
                        names=names,
                    )
                )
    return sites


# ----------------------------------------------------------------------
# scrub recognition
# ----------------------------------------------------------------------
def _call_arg_names(call: ast.Call) -> Set[str]:
    """Names a release/overwrite call touches: positional args, or the
    receiver of a method-style call (``ctx.free()``)."""
    names: Set[str] = set()
    for arg in call.args:
        names |= _expr_names(arg)
    if not names and isinstance(call.func, ast.Attribute):
        names |= _expr_names(call.func.value)
    return names


def _free_clears(
    call: ast.Call, policy: ProtectionPolicy, config: KeySpanConfig
) -> bool:
    """Does this release event actually destroy the bytes at ``policy``?
    Kernel zero-on-free scrubs every free regardless of the flag."""
    if policy.kernel_zero:
        return True
    clear = clear_flag(call, config.guard_aliases)
    return clear if isinstance(clear, bool) else getattr(policy, clear)


def _node_scrubs_site(
    node_calls: Sequence[Tuple[ast.Call, Ticks]],
    site: MintSite,
    spec: WindowKind,
    policy: ProtectionPolicy,
    config: KeySpanConfig,
) -> bool:
    for call, _mult in node_calls:
        terminal = call_terminal(call)
        if terminal is None:
            continue
        if terminal in config.scrub_calls and site.kind in config.scrub_calls[terminal]:
            return True
        if not spec.heap_backed:
            continue  # kernel-side copy: frees/overwrites cannot reach it
        if terminal in config.clearing_frees and _free_clears(call, policy, config):
            if not spec.match_names:
                return True
            if _call_arg_names(call) & site.names:
                return True
        if terminal == "write" and len(call.args) >= 2:
            if is_zero_bytes(call.args[1]) and _expr_names(call.args[0]) & site.names:
                return True
    return False


# ----------------------------------------------------------------------
# window dataflow
# ----------------------------------------------------------------------
@dataclass
class FunctionFlow:
    """One minting function's CFG with each node's calls and tick cost."""

    cfg: CFG
    calls: Dict[int, List[Tuple[ast.Call, Ticks]]]
    costs: Dict[int, Ticks]


@dataclass
class PathWindows:
    """Where the obligation ended, by route."""

    scrubbed: Optional[Ticks] = None  # join of mint→scrub distances
    escaped: bool = False  # reached exit alive (copy outlives function)
    raised: bool = False  # reached raise-exit alive (missed finally)


def site_windows(
    flow: FunctionFlow,
    site: MintSite,
    spec: WindowKind,
    policy: ProtectionPolicy,
    config: KeySpanConfig,
    follow_exceptions: bool,
) -> PathWindows:
    """Forward worklist pass accumulating ticks from the mint node."""
    cfg, node_costs = flow.cfg, flow.costs
    scrubbing = {
        index: _node_scrubs_site(calls, site, spec, policy, config)
        for index, calls in flow.calls.items()
    }
    result = PathWindows()
    state: Dict[int, Ticks] = {site.node_index: Ticks.zero()}
    worklist: List[int] = [site.node_index]
    budget = MAX_ROUNDS * max(1, len(cfg.nodes)) * 4
    while worklist and budget > 0:
        budget -= 1
        index = worklist.pop()
        node = cfg.nodes[index]
        incoming = state[index]
        if node.kind == "exit":
            result.escaped = True
            continue
        if node.kind == "raise-exit":
            result.raised = True
            continue
        if index != site.node_index and scrubbing.get(index):
            window = incoming.add(node_costs[index])
            result.scrubbed = (
                window
                if result.scrubbed is None
                else result.scrubbed.join(window)
            )
            continue
        outgoing = incoming.add(node_costs[index])
        for dst, edge_kind in node.succs:
            if edge_kind == "exception" and not follow_exceptions:
                continue
            merged = outgoing if dst not in state else state[dst].join(outgoing)
            if dst not in state or merged != state[dst]:
                state[dst] = merged
                worklist.append(dst)
    if budget <= 0:  # pragma: no cover - saturation converges far earlier
        result.escaped = True
    return result


# ----------------------------------------------------------------------
# analysis driver
# ----------------------------------------------------------------------
def _bounding_summary(
    spec: WindowKind,
    policy: ProtectionPolicy,
    summaries: Mapping[str, Ticks],
) -> Optional[Ticks]:
    """The bounded-within summary, when the flag is on at this level."""
    if spec.bounded_within is None:
        return None
    flag, suffix = spec.bounded_within
    if not getattr(policy, flag, False):
        return None
    bound: Optional[Ticks] = None
    for name, summary in summaries.items():
        if name.endswith(suffix):
            bound = summary if bound is None else bound.join(summary)
    return bound if bound is not None else Ticks.unbounded()


def analyze(
    paths: Optional[Sequence[Path]] = None,
    files: Optional[Sequence[Tuple[Path, Path]]] = None,
    config: KeySpanConfig = DEFAULT_CONFIG,
    project: Optional[Project] = None,
) -> KeySpanReport:
    """Run KeySpan and return the exposure-window report.

    Collection iterates sorted names and the worklist joins are
    order-free.  ``project`` reuses an already-loaded IR build.
    """
    project = load_project(paths, files, project)

    summaries = compute_summaries(project)
    # Mints outside the deployment are findings, but the window table is
    # a property of the deployment.
    deployed_functions = reachable(project)
    strongest_software = POLICIES["INTEGRATED"]

    # ------------------------------------------------------------------
    # collect mint sites (CFGs built only where mints occur)
    # ------------------------------------------------------------------
    sites: List[MintSite] = []
    flows: Dict[str, FunctionFlow] = {}
    for name in project.sorted_names():
        info = project.functions[name]
        if info.terminals.isdisjoint(MINT_CALLS):
            continue
        cfg = build_cfg(info.node)
        function_sites = collect_mint_sites(info, cfg)
        if not function_sites:
            continue
        node_calls = {n.index: _node_calls(n) for n in cfg.nodes}
        node_costs: Dict[int, Ticks] = {}
        for node in cfg.nodes:
            if node.kind in ("entry", "exit", "raise-exit", "join", "dispatch"):
                node_costs[node.index] = Ticks.zero()
                continue
            cost = Ticks.one()
            for call, mult in node_calls[node.index]:
                cost = cost.add(
                    price_call(
                        call_terminal(call),
                        info.call_targets.get(id(call), ()),
                        summaries,
                    ).mul(mult)
                )
            node_costs[node.index] = cost
        flows[name] = FunctionFlow(cfg, node_calls, node_costs)
        sites.extend(function_sites)

    # ------------------------------------------------------------------
    # findings (level-independent facts per mint site)
    # ------------------------------------------------------------------
    findings: List[Finding] = []
    for site in sites:
        spec = config.kinds[site.kind]
        paths_exc = site_windows(
            flows[site.function],
            site,
            spec,
            strongest_software,
            config,
            follow_exceptions=True,
        )
        covered = not paths_exc.raised
        deployed = site.function in deployed_functions
        findings.append(
            Finding(
                rule=site.kind,
                function=site.function,
                rel_path=site.rel_path,
                line=site.line,
                detail=f"{site.terminal}#{site.ordinal}",
                message=(
                    f"{site.terminal}() mints a {site.kind} copy"
                    + (
                        "; scrubs cover the exception routes"
                        if covered
                        else "; an exception between mint and scrub escapes "
                        "unscrubbed (no finally route) — bounded only by "
                        "kernel zero-on-free teardown"
                    )
                ),
                exception_covered=covered,
                deployed=deployed,
            )
        )

    # ------------------------------------------------------------------
    # per-level window tables
    # ------------------------------------------------------------------
    windows: Dict[str, Dict[str, Optional[Ticks]]] = {}
    exception_tables: Dict[str, Dict[str, Optional[Ticks]]] = {}
    deployed_sites = [s for s in sites if s.function in deployed_functions]
    teardown = Ticks(TEARDOWN_TICKS, 0)
    for level in LADDER:
        policy = POLICIES[level]
        level_windows: Dict[str, Optional[Ticks]] = {}
        level_exc: Dict[str, Optional[Ticks]] = {}
        for kind, spec in config.kinds.items():
            kind_sites = [s for s in deployed_sites if s.kind == kind]
            if not copy_exists(spec, policy) or not kind_sites:
                level_windows[kind] = None
                level_exc[kind] = None
                continue
            bounding = _bounding_summary(spec, policy, summaries)
            steady: Optional[Ticks] = None
            residual: Optional[Ticks] = None
            for site in kind_sites:
                if bounding is not None:
                    site_steady = bounding
                else:
                    paths_normal = site_windows(
                        flows[site.function],
                        site,
                        spec,
                        policy,
                        config,
                        follow_exceptions=False,
                    )
                    site_steady = (
                        paths_normal.scrubbed
                        if paths_normal.scrubbed is not None
                        else Ticks.zero()
                    )
                    if paths_normal.escaped:
                        site_steady = Ticks.unbounded()
                paths_exc = site_windows(
                    flows[site.function],
                    site,
                    spec,
                    policy,
                    config,
                    follow_exceptions=True,
                )
                site_exc = site_steady
                if paths_exc.raised:
                    site_exc = site_exc.join(
                        teardown if policy.kernel_zero else Ticks.unbounded()
                    )
                steady = site_steady if steady is None else steady.join(site_steady)
                residual = site_exc if residual is None else residual.join(site_exc)
            level_windows[kind] = steady
            level_exc[kind] = residual
        windows[level] = level_windows
        exception_tables[level] = level_exc

    return KeySpanReport(
        findings=sort_findings(findings),
        windows=windows,
        exception_windows=exception_tables,
        files=list(project.files),
        function_count=len(project.functions),
        config=config.describe(),
    )
