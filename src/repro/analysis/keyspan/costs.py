"""Per-function event-tick cost summaries.

Every statement costs one abstract tick; a call costs its callee's
summary (join over the coarse name-resolved candidates), except for
the memory-plumbing terminals priced as constants by the config.
Loops multiply their body by a symbolic or constant trip count, using
the constant-iterable table KeyCount's site collector reads
(:mod:`repro.analysis.ir.deployment`): ``PART_NAMES`` is 6,
``range(k)`` is ``k`` (capped), anything connection-shaped — or a
``while True`` serve loop — is the symbolic ``N``, and plain data
loops get the configured constant trip bound.

Summaries are computed bottom-up over Tarjan SCCs of the resolved call
graph: the condensation is a DAG, so one pass in reverse topological
order reaches the exact fixpoint, and any function in a call cycle
(including self-recursion) is priced ⊤ — recursion depth is exactly
the kind of bound this analysis refuses to guess.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..ir.deployment import LOOP_CONST_CAP, const_trips
from ..ir.project import FunctionInfo, Project, call_terminal
from .config import DEFAULT_LOOP_TRIPS, PRIMITIVE_COSTS, SYMBOLIC_LOOP_TOKENS
from .domain import Ticks


@dataclass(frozen=True)
class PricedCall:
    """One call site inside a function's own body."""

    terminal: Optional[str]
    targets: Tuple[str, ...]
    multiplier: Ticks


@dataclass(frozen=True)
class CostTemplate:
    """A function's cost, with callee prices left symbolic."""

    base: Ticks
    calls: Tuple[PricedCall, ...]


def loop_multiplier(header: Optional[ast.expr]) -> Ticks:
    """Trip-count bound for one loop given its iterable/test expr."""
    if header is None:
        return Ticks(DEFAULT_LOOP_TRIPS, 0)
    # range(const) and named constant-size iterables stay precise.
    if isinstance(header, ast.Call) and call_terminal(header) == "range":
        args = header.args
        bound = args[1] if len(args) >= 2 else (args[0] if args else None)
        if isinstance(bound, ast.Constant) and isinstance(bound.value, int):
            if 0 <= bound.value <= LOOP_CONST_CAP:
                return Ticks(bound.value, 0)
            return Ticks.per_connection()
    for node in ast.walk(header):
        if isinstance(node, ast.Name):
            trips = const_trips(node.id)
            if trips is not None:
                return Ticks(trips, 0)
    # ``while True`` and connection-shaped iterables serve N times.
    if isinstance(header, ast.Constant) and header.value is True:
        return Ticks.per_connection()
    tokens = {
        part
        for node in ast.walk(header)
        if isinstance(node, (ast.Name, ast.Attribute))
        for part in [
            node.id.lower() if isinstance(node, ast.Name) else node.attr.lower()
        ]
    }
    if tokens & SYMBOLIC_LOOP_TOKENS:
        return Ticks.per_connection()
    return Ticks(DEFAULT_LOOP_TRIPS, 0)


def _comprehension_multiplier(node: ast.AST) -> Ticks:
    mult = Ticks.one()
    for gen in getattr(node, "generators", ()):
        mult = mult.mul(loop_multiplier(gen.iter))
    return mult


#: Expressions that run their element once per generated item.
_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)

#: AST node type -> its ``_fields``, ``ctx`` left out.
_CHILD_FIELDS: Dict[type, Tuple[str, ...]] = {}


def calls_in_expr(
    expr: ast.AST, multiplier: Ticks
) -> List[Tuple[ast.Call, Ticks]]:
    """All calls in an expression with their loop-adjusted multipliers
    (calls inside comprehension bodies run once per generated element;
    lambda bodies are skipped — they are separate functions)."""
    found: List[Tuple[ast.Call, Ticks]] = []
    _collect_calls([expr], multiplier, found)
    return found


def _collect_calls(
    stack: List[ast.AST], mult: Ticks, found: List[Tuple[ast.Call, Ticks]]
) -> None:
    """Pop ``stack`` empty, pricing its calls at ``mult``.  Children are
    pushed in source order, so siblings pop last to first.  A
    comprehension's children are walked at once at its own multiplier,
    before the rest of the stack, as a shared stack would pop them."""
    child_fields = _CHILD_FIELDS
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is ast.Call:
            found.append((node, mult))
        elif kind is ast.Lambda or kind is ast.Name or kind is ast.Constant:
            continue  # a separate function, or a leaf
        fields = child_fields.get(kind)
        if fields is None:
            fields = child_fields[kind] = tuple(
                name for name in kind._fields if name != "ctx"
            )
        children = [] if kind in _COMPREHENSIONS else stack
        for name in fields:
            value = getattr(node, name, None)
            if type(value) is list:
                for item in value:
                    if isinstance(item, ast.AST):
                        children.append(item)
            elif isinstance(value, ast.AST):
                children.append(value)
        if children is not stack:
            _collect_calls(
                children, mult.mul(_comprehension_multiplier(node)), found
            )


def build_template(info: FunctionInfo) -> CostTemplate:
    """One AST walk turning a function body into ``base + Σ calls``."""
    base = Ticks.zero()
    calls: List[PricedCall] = []

    def note_calls(expr: Optional[ast.AST], mult: Ticks) -> None:
        if expr is None:
            return
        for call, call_mult in calls_in_expr(expr, mult):
            calls.append(
                PricedCall(
                    terminal=call_terminal(call),
                    targets=tuple(info.call_targets.get(id(call), ())),
                    multiplier=call_mult,
                )
            )

    def walk(stmts: Sequence[ast.stmt], mult: Ticks) -> None:
        nonlocal base
        for stmt in stmts:
            if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue  # nested defs are their own summaries
            base = base.add(mult)
            if isinstance(stmt, ast.If):
                note_calls(stmt.test, mult)
                # Sequential sum of both arms over-approximates the
                # path max — sound for an upper bound.
                walk(stmt.body, mult)
                walk(stmt.orelse, mult)
            elif isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
                header = stmt.test if isinstance(stmt, ast.While) else stmt.iter
                note_calls(header, mult)
                inner = mult.mul(loop_multiplier(header))
                walk(stmt.body, inner)
                walk(stmt.orelse, mult)
            elif isinstance(stmt, ast.Try):
                walk(stmt.body, mult)
                for handler in stmt.handlers:
                    walk(handler.body, mult)
                walk(stmt.orelse, mult)
                walk(stmt.finalbody, mult)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    note_calls(item.context_expr, mult)
                walk(stmt.body, mult)
            else:
                note_calls(stmt, mult)

    walk(info.node.body, Ticks.one())
    return CostTemplate(base=base, calls=tuple(calls))


def price_call(
    terminal: Optional[str],
    targets: Sequence[str],
    summaries: Mapping[str, Ticks],
) -> Ticks:
    """Tick price of one call: primitive override, else candidate join."""
    if terminal is not None and terminal in PRIMITIVE_COSTS:
        return Ticks(PRIMITIVE_COSTS[terminal], 0)
    known = [summaries[t] for t in targets if t in summaries]
    if not known:
        return Ticks.one()
    price = Ticks.one()  # the call event itself
    for summary in known:
        price = price.join(summary)
    return price


def _tarjan_sccs(graph: Mapping[str, Sequence[str]]) -> List[List[str]]:
    """Tarjan's SCCs, iterative, in reverse topological order."""
    index_of: Dict[str, int] = {}
    low: Dict[str, int] = {}
    on_stack: Dict[str, bool] = {}
    stack: List[str] = []
    sccs: List[List[str]] = []
    counter = [0]

    for root in sorted(graph):
        if root in index_of:
            continue
        work: List[Tuple[str, int]] = [(root, 0)]
        while work:
            node, edge_i = work[-1]
            if edge_i == 0:
                index_of[node] = low[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack[node] = True
            edges = graph.get(node, ())
            advanced = False
            for i in range(edge_i, len(edges)):
                succ = edges[i]
                if succ not in index_of:
                    work[-1] = (node, i + 1)
                    work.append((succ, 0))
                    advanced = True
                    break
                if on_stack.get(succ):
                    low[node] = min(low[node], index_of[succ])
            if advanced:
                continue
            work.pop()
            if low[node] == index_of[node]:
                scc: List[str] = []
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    scc.append(member)
                    if member == node:
                        break
                sccs.append(scc)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return sccs


def compute_summaries(project: Project) -> Dict[str, Ticks]:
    """Bottom-up tick summary for every function in the project."""
    templates = {
        name: build_template(project.functions[name])
        for name in project.sorted_names()
    }
    graph: Dict[str, List[str]] = {}
    for name, template in templates.items():
        succs: List[str] = []
        for call in template.calls:
            if call.terminal in PRIMITIVE_COSTS:
                continue  # priced as a constant, no summary dependency
            succs.extend(t for t in call.targets if t in templates)
        graph[name] = sorted(set(succs))

    summaries: Dict[str, Ticks] = {}
    for scc in _tarjan_sccs(graph):
        cyclic = len(scc) > 1 or scc[0] in graph.get(scc[0], ())
        if cyclic:
            for name in scc:
                summaries[name] = Ticks.unbounded()
            continue
        name = scc[0]
        template = templates[name]
        total = template.base
        for call in template.calls:
            total = total.add(
                price_call(call.terminal, call.targets, summaries).mul(
                    call.multiplier
                )
            )
        summaries[name] = total
    return summaries
