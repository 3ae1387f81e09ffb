"""Copy-site and call-edge discovery (the intraprocedural half).

One pass over each function's own AST (nested defs are separate
functions) produces:

* :class:`CopySite` — a program point that materializes a copy of key
  material, annotated with the loop multiplier and the policy guards
  under which it executes;
* :class:`CallEdge` — a resolved call with the same multiplier/guard
  annotations, for the interprocedural context propagation.

Three syntactic judgements do the heavy lifting:

**Guards.**  ``if policy.lib_align:`` (or an aliased local such as
``align=`` / ``scrub_buffers=`` / ``rsa.aligned``) contributes a
signed guard ``(flag, polarity)`` to everything in the taken branch;
``else`` bodies get the opposite polarity.  A context whose guard set
demands both polarities of one flag is dead and dropped.

**Loop multipliers.**  ``for name in PART_NAMES`` multiplies by the
known constant 6; ``range(k)`` by ``k`` (capped); any other loop —
``while``, iteration over connections, generators — multiplies by the
symbolic connection count ``N``.  Nested symbolic loops widen to ⊤
(the domain has no ``N²``).

**Free-without-clear.**  ``heap.free(buf, clear=False)`` of a
secret-hinted buffer leaves a freed-region copy (``temp-buffer``)
*unless* the same expression was overwritten with zeros earlier in the
function (``mm.write(buf, b"\\x00" * n)`` — the ``bn_clear_free``
shape), in which case the copy is transient and contributes nothing.
``clear=<policy-aliased name>`` records a negative guard instead: the
copy exists only when that mitigation is off.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..ir.deployment import (
    LOOP_CONST_CAP,
    clear_flag,
    const_trips,
    is_wrapper,
    is_zero_bytes,
    policy_flag,
)
from ..ir.domain import Count
from ..ir.project import FunctionInfo, call_terminal
from .config import COPY_CALLS, SECRET_HINTS

#: :data:`COPY_CALLS` in the shape the shared wrapper rule reads.
_COPY_KINDS = {terminal: (kind,) for terminal, kind in COPY_CALLS.items()}

#: A signed policy guard: ``("lib_align", True)`` means "only when the
#: library-alignment mitigation is enabled".
Guard = Tuple[str, bool]
GuardSet = FrozenSet[Guard]

EMPTY_GUARDS: GuardSet = frozenset()


def guards_contradictory(guards: GuardSet) -> bool:
    flags = [flag for flag, _ in guards]
    return len(flags) != len(set(flags))


def guards_consistent_with(guards: GuardSet, policy) -> bool:
    """True when every signed guard matches the policy's flag values."""
    return all(
        bool(getattr(policy, flag)) == polarity for flag, polarity in guards
    )


@dataclass(frozen=True)
class CopySite:
    """One copy-creating program point."""

    function: str
    rel_path: str
    line: int
    kind: str
    #: Terminal name of the copy-creating call.
    op: str
    #: Ordinal among same-kind sites within the function (stable id).
    index: int
    #: Copies created per execution of the enclosing function body.
    multiplier: Count
    #: Guards that must hold for the site to execute.
    guards: GuardSet


@dataclass(frozen=True)
class CallEdge:
    """One resolved call, annotated for context propagation."""

    caller: str
    callee: str
    line: int
    multiplier: Count
    guards: GuardSet


class _SiteCollector(ast.NodeVisitor):
    """Walk one function body tracking loop multipliers and guards."""

    def __init__(self, info: FunctionInfo) -> None:
        self.info = info
        self.terminal = info.qualname.rsplit(".", 1)[-1]
        self.mult_stack: List[Count] = []
        self.guard_stack: List[Guard] = []
        #: ast.dump of expressions overwritten with zeros so far.
        self.zeroed: set = set()
        self.raw_sites: List[Tuple[str, str, int, Count, GuardSet]] = []
        self.edges: List[CallEdge] = []

    # -- current annotations -------------------------------------------
    def _multiplier(self) -> Count:
        result = Count.one()
        for m in self.mult_stack:
            result = result.mul(m)
        return result

    def _guards(self, extra: Optional[Guard] = None) -> Optional[GuardSet]:
        guards = list(self.guard_stack)
        if extra is not None:
            guards.append(extra)
        merged = frozenset(guards)
        if guards_contradictory(merged):
            return None
        return merged

    # -- guard extraction ----------------------------------------------
    def _guard_of(self, test: ast.AST) -> Optional[Guard]:
        polarity = True
        while isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            polarity = not polarity
            test = test.operand
        flag = policy_flag(test)
        if flag is None:
            return None
        return (flag, polarity)

    # -- loop multipliers ----------------------------------------------
    def _loop_multiplier(self, iterable: ast.AST) -> Count:
        if isinstance(iterable, ast.Name):
            trips = const_trips(iterable.id)
            if trips is not None:
                return Count(trips, 0)
            return Count.per_connection()
        if isinstance(iterable, ast.Call):
            terminal = call_terminal(iterable)
            if terminal == "range":
                bounds = [
                    a.value
                    for a in iterable.args
                    if isinstance(a, ast.Constant) and isinstance(a.value, int)
                ]
                if len(bounds) == len(iterable.args) and bounds:
                    trips = bounds[0] if len(bounds) == 1 else bounds[1] - bounds[0]
                    trips = max(trips, 0)
                    if trips <= LOOP_CONST_CAP:
                        return Count(trips, 0)
        return Count.per_connection()

    # -- structured statements -----------------------------------------
    def _visit_body(self, statements) -> None:
        for stmt in statements:
            self.visit(stmt)

    def visit_If(self, node: ast.If) -> None:
        self.visit(node.test)
        guard = self._guard_of(node.test)
        if guard is not None:
            self.guard_stack.append(guard)
        self._visit_body(node.body)
        if guard is not None:
            self.guard_stack.pop()
            self.guard_stack.append((guard[0], not guard[1]))
        self._visit_body(node.orelse)
        if guard is not None:
            self.guard_stack.pop()

    def visit_For(self, node: ast.For) -> None:
        self.visit(node.iter)
        self.mult_stack.append(self._loop_multiplier(node.iter))
        self._visit_body(node.body)
        self.mult_stack.pop()
        self._visit_body(node.orelse)

    visit_AsyncFor = visit_For

    def visit_While(self, node: ast.While) -> None:
        self.visit(node.test)
        self.mult_stack.append(Count.per_connection())
        self._visit_body(node.body)
        self.mult_stack.pop()
        self._visit_body(node.orelse)

    def _visit_comprehension(self, node, parts) -> None:
        multiplier = Count.one()
        for gen in node.generators:
            self.visit(gen.iter)
            multiplier = multiplier.mul(self._loop_multiplier(gen.iter))
        self.mult_stack.append(multiplier)
        for part in parts:
            self.visit(part)
        for gen in node.generators:
            for cond in gen.ifs:
                self.visit(cond)
        self.mult_stack.pop()

    def visit_ListComp(self, node) -> None:
        self._visit_comprehension(node, [node.elt])

    def visit_SetComp(self, node) -> None:
        self._visit_comprehension(node, [node.elt])

    def visit_GeneratorExp(self, node) -> None:
        self._visit_comprehension(node, [node.elt])

    def visit_DictComp(self, node) -> None:
        self._visit_comprehension(node, [node.key, node.value])

    def visit_Lambda(self, node: ast.Lambda) -> None:
        # A lambda's body runs whenever the closure is called — an
        # unknown number of times; bound it per-connection.
        self.mult_stack.append(Count.per_connection())
        self.visit(node.body)
        self.mult_stack.pop()

    # Nested defs/classes are separate functions in the IR.
    def visit_FunctionDef(self, node) -> None:  # pragma: no cover - trivial
        return

    visit_AsyncFunctionDef = visit_FunctionDef
    visit_ClassDef = visit_FunctionDef

    # -- calls ----------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        self.generic_visit(node)
        terminal = call_terminal(node)
        if terminal is not None:
            kind = COPY_CALLS.get(terminal)
            if kind is not None and not is_wrapper(self.info, terminal, _COPY_KINDS):
                self._record_site(kind, terminal, node.lineno)
            elif terminal == "free" and self.terminal != "free":
                self._maybe_free_site(node)
        for callee in self.info.call_targets.get(id(node), ()):
            guards = self._guards()
            if guards is None:
                continue
            self.edges.append(
                CallEdge(
                    caller=self.info.full_name,
                    callee=callee,
                    line=node.lineno,
                    multiplier=self._multiplier(),
                    guards=guards,
                )
            )

    def _record_site(
        self, kind: str, op: str, line: int, extra: Optional[Guard] = None
    ) -> None:
        guards = self._guards(extra)
        if guards is None:
            return
        self.raw_sites.append((kind, op, line, self._multiplier(), guards))

    # -- free-without-clear --------------------------------------------
    def _maybe_free_site(self, node: ast.Call) -> None:
        clear = clear_flag(node)
        if clear is True:
            return  # explicit clear: no residual copy
        # clear=<mitigation flag>: the copy exists only when that
        # mitigation is off.
        extra: Optional[Guard] = (clear, False) if clear else None
        tokens = set()
        for arg in node.args:
            for sub in ast.walk(arg):
                if isinstance(sub, ast.Name):
                    tokens.update(sub.id.lower().split("_"))
                elif isinstance(sub, ast.Attribute):
                    tokens.update(sub.attr.lower().split("_"))
        if tokens.isdisjoint(SECRET_HINTS):
            return
        if node.args and ast.dump(node.args[0]) in self.zeroed:
            return  # must-path zero overwrite precedes the free
        self._record_site("temp-buffer", "free", node.lineno, extra)

    def visit_Expr(self, node: ast.Expr) -> None:
        call = node.value
        if (
            isinstance(call, ast.Call)
            and call_terminal(call) == "write"
            and len(call.args) >= 2
            and is_zero_bytes(call.args[1])
        ):
            self.zeroed.add(ast.dump(call.args[0]))
        self.generic_visit(node)


def collect_function(info: FunctionInfo) -> Tuple[List[CopySite], List[CallEdge]]:
    """All copy sites and annotated call edges of one function."""
    collector = _SiteCollector(info)
    for stmt in info.node.body:
        collector.visit(stmt)
    ordinals: Dict[str, int] = {}
    sites: List[CopySite] = []
    for kind, op, line, multiplier, guards in collector.raw_sites:
        index = ordinals.get(kind, 0)
        ordinals[kind] = index + 1
        sites.append(
            CopySite(
                function=info.full_name,
                rel_path=info.rel_path,
                line=line,
                kind=kind,
                op=op,
                index=index,
                multiplier=multiplier,
                guards=guards,
            )
        )
    return sites, collector.edges
