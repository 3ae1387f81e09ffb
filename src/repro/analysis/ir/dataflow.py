"""One interprocedural key-material fixpoint for KeyFlow and KeyRecon.

Per function, a forward may-analysis over its CFG with state = a map
from local names to a *value*: the KeyRecon fragment set the name may
carry ({p}, {dmp1, mont_p}, …) plus one reserved member, :data:`TAINT`,
which is KeyFlow's may-taint bit.  Across functions, three monotone
global facts drive a chaotic-iteration fixpoint:

* ``Summary.params`` — the value each parameter receives at some call
  site (grows only);
* ``Summary.returns`` — the value the function may return (grows
  only);
* ``fields`` — the field-based heap: attribute name -> value ever
  stored there anywhere in the program.  This is what carries the PEM
  blob through data at rest (``SimFile.data`` -> page-cache loads)
  with its taint and its ``{der, pem}`` fragments intact.

Each member follows its own layer's config.  KeyFlow's sources, source
attributes and scrubbers decide ``TAINT``; KeyRecon's derivation edges,
fragment attributes and scrubbers decide the fragments.  Taint is not
"fragment set ≠ ∅": a tainted value can carry no fragment, so it
travels as its own member.  The rules differ in three places:

* a subscript takes taint from its slice (``buf[secret]``) but
  fragments only from its value and a constant key (``rsa.bn["p"]``);
* a comprehension target rebinds only the members its iterable
  carries, and keeps the other;
* a call's taint follows KeyFlow (sources first, then scrubbers, then
  a tainted receiver, a tainted callee return, or tainted arguments
  into a constructor or unresolved callee), its fragments follow
  KeyRecon (projection edges return exactly their ``adds``, matched
  edges propagate their inputs) — so taint does not pass through a
  derivation edge.

No rule lets one member change another, so the fixpoint is exactly the
pair of the two layers' own fixpoints.  All global facts grow
monotonically, so chaotic iteration reaches the unique least fixpoint
regardless of worklist order; results are then collected in one
deterministic final pass — the basis of both layers' byte-identical
output guarantee.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.analysis.ir.cfg import CFG, build_cfg
from repro.analysis.ir.project import FunctionInfo, Project, call_terminal

if TYPE_CHECKING:
    from repro.analysis.keyflow.config import KeyFlowConfig
    from repro.analysis.keyrecon.config import KeyReconConfig

#: The reserved member that carries KeyFlow's taint; never a fragment.
TAINT = "<taint>"
TAINTED: FrozenSet[str] = frozenset({TAINT})
EMPTY: FrozenSet[str] = frozenset()

#: One abstract state: local name -> value (absent = empty).
State = Dict[str, FrozenSet[str]]

_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)


@dataclass
class Summary:
    """Monotone interprocedural facts about one function."""

    params: Dict[str, Set[str]] = field(default_factory=dict)
    returns: Set[str] = field(default_factory=set)


@dataclass(frozen=True)
class TaintEvent:
    """KeyFlow: one source use or sink hit inside a function."""

    kind: str  # "source" | "sink"
    name: str  # terminal call name
    category: str
    line: int


@dataclass(frozen=True)
class ConcentrationEvent:
    """KeyRecon: private fragments flowed into a concentrating call."""

    call: str
    fragments: Tuple[str, ...]
    line: int


@dataclass(frozen=True)
class DerivationEvent:
    """KeyRecon: one derivation edge fired at a call site."""

    family: str
    call: str
    adds: Tuple[str, ...]  # sorted fragments the edge minted here
    line: int


@dataclass
class FunctionResult:
    """Output of analyzing one function (final collection pass)."""

    returns: Set[str] = field(default_factory=set)
    field_writes: Dict[str, Set[str]] = field(default_factory=dict)
    param_contribs: Dict[str, Dict[str, Set[str]]] = field(default_factory=dict)
    taint_events: List[TaintEvent] = field(default_factory=list)
    concentrations: List[ConcentrationEvent] = field(default_factory=list)
    derivations: List[DerivationEvent] = field(default_factory=list)
    #: Union of every member live anywhere in this function.
    resident: Set[str] = field(default_factory=set)

    @property
    def fragments(self) -> FrozenSet[str]:
        """The resident fragments: KeyRecon's view of this function."""
        return frozenset(self.resident - TAINTED)


class _FunctionRun:
    """One intraprocedural run of the transfer over a CFG."""

    def __init__(self, analysis: "KeyMaterialAnalysis", info: FunctionInfo) -> None:
        self.analysis = analysis
        self.flow = analysis.flow
        self.recon = analysis.recon
        self.info = info
        self.cfg = analysis.cfg_for(info.full_name)
        self.preds = analysis.preds_for(info.full_name)
        self.summaries = analysis.summaries
        self.fields = analysis.fields
        self.collecting = False
        self.result = FunctionResult()

    # ------------------------------------------------------------------
    def run(self, collect: bool) -> FunctionResult:
        """Settle the function's states; with ``collect``, then record
        events and residency in one pass over the settled IN states
        (summary facts need no such pass: they accumulate on every
        transfer)."""
        summary = self.summaries[self.info.full_name]
        entry_state: State = {
            param: frozenset(value)
            for param, value in summary.params.items()
            if value
        }
        nodes = self.cfg.nodes
        ins: List[State] = [{} for _ in nodes]
        outs: List[Optional[State]] = [None] * len(nodes)

        # The two exits have no statement and no successor, so nothing
        # flows on from them: they are never queued (held as pending).
        exits = {self.cfg.exit, self.cfg.raise_exit}
        worklist = deque(i for i in range(len(nodes)) if i not in exits)
        pending = set(worklist) | exits
        while worklist:
            index = worklist.popleft()
            pending.discard(index)
            # A stored state is never mutated, so the IN state shares
            # its first contributor and is copied only to join a second.
            in_state = entry_state if index == self.cfg.entry else None
            owned = False
            for pred in self.preds[index]:
                out = outs[pred]
                if out is None or out is in_state:
                    continue
                if in_state is None:
                    in_state = out
                    continue
                if not owned:
                    in_state, owned = dict(in_state), True
                _join(in_state, out)
            ins[index] = in_state = {} if in_state is None else in_state
            out_state = self._transfer(nodes[index], dict(in_state))
            if outs[index] is None or out_state != outs[index]:
                outs[index] = out_state
                for dst, _ in nodes[index].succs:
                    if dst not in pending:
                        pending.add(dst)
                        worklist.append(dst)

        if collect:
            self.collecting = True
            for node in nodes:
                self._transfer(node, dict(ins[node.index]))
            for value in entry_state.values():
                self.result.resident |= value
        return self.result

    # ------------------------------------------------------------------
    # statement transfer
    # ------------------------------------------------------------------
    def _transfer(self, node, state: State) -> State:
        stmt = node.stmt
        if node.kind in ("entry", "exit", "raise-exit", "join", "dispatch"):
            return state

        if isinstance(stmt, ast.ExceptHandler):
            if stmt.name:
                state.pop(stmt.name, None)
            return state
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return state

        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._bind(stmt.target, self._eval(stmt.iter, state), state)
            return state
        if isinstance(stmt, (ast.If, ast.While)):
            self._eval(stmt.test, state)
            return state
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                value = self._eval(item.context_expr, state)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, value, state)
            return state

        if isinstance(stmt, ast.Assign):
            value = self._eval(stmt.value, state)
            for target in stmt.targets:
                self._bind(target, value, state)
            return state
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._bind(stmt.target, self._eval(stmt.value, state), state)
            return state
        if isinstance(stmt, ast.AugAssign):
            value = self._eval(stmt.value, state)
            if isinstance(stmt.target, ast.Name):
                value = value | state.get(stmt.target.id, EMPTY)
            self._bind(stmt.target, value, state)
            return state

        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.result.returns |= self._eval(stmt.value, state)
            return state
        if isinstance(stmt, ast.Expr):
            value = stmt.value
            if isinstance(value, (ast.Yield, ast.YieldFrom)):
                inner = getattr(value, "value", None)
                if inner is not None:
                    self.result.returns |= self._eval(inner, state)
            else:
                self._eval(value, state)
            return state
        if isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self._eval(stmt.exc, state)
            return state
        if isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    state.pop(target.id, None)
            return state
        if isinstance(stmt, ast.Assert):
            self._eval(stmt.test, state)
            return state

        # anything else: evaluate child expressions for their effects
        if stmt is not None:
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._eval(child, state)
        return state

    # ------------------------------------------------------------------
    def _bind(self, target: ast.expr, value: FrozenSet[str], state: State,
              comprehension: bool = False) -> None:
        if isinstance(target, ast.Name):
            if comprehension:
                # rebind only the members the iterable carries
                kept = state.get(target.id, EMPTY)
                value = value | (kept & TAINTED if value - TAINTED else kept)
            if value:
                state[target.id] = value
            else:
                state.pop(target.id, None)
        elif isinstance(target, ast.Starred):
            self._bind(target.value, value, state, comprehension)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind(element, value, state, comprehension)
        elif isinstance(target, ast.Attribute):
            self._eval(target.value, state)
            if value:
                self.result.field_writes.setdefault(target.attr, set()).update(value)
                if isinstance(target.value, ast.Name):
                    # the object now carries the value
                    base = target.value.id
                    state[base] = state.get(base, EMPTY) | value
        elif isinstance(target, ast.Subscript):
            self._eval(target.value, state)
            if value:
                if isinstance(target.value, ast.Name):
                    base = target.value.id
                    state[base] = state.get(base, EMPTY) | value
                elif isinstance(target.value, ast.Attribute):
                    # self.bn["d"] = secret stores into the field
                    self.result.field_writes.setdefault(
                        target.value.attr, set()
                    ).update(value)

    # ------------------------------------------------------------------
    # expression values
    # ------------------------------------------------------------------
    def _eval(self, expr: Optional[ast.expr], state: State) -> FrozenSet[str]:
        value = self._eval_raw(expr, state)
        if value and self.collecting:
            self.result.resident |= value
        return value

    def _eval_raw(self, expr: Optional[ast.expr], state: State) -> FrozenSet[str]:
        if expr is None or isinstance(expr, ast.Constant):
            return EMPTY
        if isinstance(expr, ast.Name):
            return state.get(expr.id, EMPTY)
        if isinstance(expr, ast.Attribute):
            value = self._eval(expr.value, state)
            minted = self.analysis.attr_values.get(expr.attr)
            if minted:
                value = value | minted
            stored = self.fields.get(expr.attr)
            if stored:
                value = value | stored
            return value
        if isinstance(expr, ast.Subscript):
            value = self._eval(expr.value, state)
            if TAINT in self._eval(expr.slice, state):
                value = value | TAINTED
            key = expr.slice
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                # rsa.bn["p"]-style loads: the constant key names the part
                value = value | self.analysis.key_values.get(key.value, EMPTY)
            return value
        if isinstance(expr, ast.Call):
            return self._eval_call(expr, state)
        if isinstance(expr, ast.Lambda):
            # the lambda body shares this scope's names
            return self._eval(expr.body, state)
        if isinstance(expr, ast.NamedExpr):
            value = self._eval(expr.value, state)
            if isinstance(expr.target, ast.Name):
                self._bind(expr.target, value, state)
            return value
        if isinstance(expr, _COMPREHENSIONS):
            value = EMPTY
            for gen in expr.generators:
                iterated = self._eval(gen.iter, state)
                if iterated:
                    value = value | iterated
                    self._bind(gen.target, iterated, state, comprehension=True)
                for cond in gen.ifs:
                    self._eval(cond, state)
            if isinstance(expr, ast.DictComp):
                value = value | self._eval(expr.key, state)
                return value | self._eval(expr.value, state)
            return value | self._eval(expr.elt, state)
        # generic: the union of child values (no short-circuit: every
        # child must be visited for event collection)
        value = EMPTY
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                value = value | self._eval(child, state)
        return value

    def _eval_call(self, node: ast.Call, state: State) -> FrozenSet[str]:
        terminal = call_terminal(node)
        receiver = (
            self._eval(node.func, state)
            if isinstance(node.func, ast.Attribute)
            else EMPTY
        )
        positional: List[FrozenSet[str]] = []
        spread = EMPTY
        for arg in node.args:
            if isinstance(arg, ast.Starred):
                spread = spread | self._eval(arg.value, state)
            else:
                positional.append(self._eval(arg, state))
        keywords: List[Tuple[str, FrozenSet[str]]] = []
        for kw in node.keywords:
            value = self._eval(kw.value, state)
            if kw.arg is None:
                spread = spread | value
            else:
                keywords.append((kw.arg, value))
        incoming = receiver | spread
        for value in positional:
            incoming = incoming | value
        for _, value in keywords:
            incoming = incoming | value

        targets = self.info.call_targets.get(id(node), ())
        self._record_contribs(targets, positional, keywords, spread)
        returns: FrozenSet[str] = EMPTY
        constructs = not targets  # unknown callable: assume it derives its input
        for target in targets:
            returns = returns | self.summaries[target].returns
            # a constructed object holds its inputs
            constructs = constructs or target.endswith(".__init__")

        # KeyRecon's member: scrubbers, then derivation edges.
        scrubbed = terminal in self.recon.scrubbers
        edges = () if scrubbed else self.analysis.edges_by_call.get(terminal, ())
        matched = [
            edge for edge in edges
            if not edge.requires or not incoming.isdisjoint(edge.requires)
        ]
        if self.collecting:
            self._collect(node, terminal, incoming, matched)

        out: Set[str] = set()
        if any(edge.project for edge in edges):
            # a projection returns exactly what its satisfied edges extract
            for edge in matched:
                out.update(edge.adds)
        elif not scrubbed:
            out.update(receiver)
            out |= returns
            if matched or constructs:
                out |= incoming  # a derivation propagates its inputs
            for edge in matched:
                out.update(edge.adds)
        out.discard(TAINT)

        # KeyFlow's member: sources first, then scrubbers, then flow.
        if terminal in self.flow.source_calls or (
            terminal not in self.flow.scrubbers
            and (
                TAINT in receiver
                or TAINT in returns
                or (constructs and TAINT in incoming)
            )
        ):
            out.add(TAINT)
        return frozenset(out)

    def _collect(self, node: ast.Call, terminal: Optional[str],
                 incoming: FrozenSet[str], matched: list) -> None:
        """Record both layers' events at one call site."""
        if terminal is None:
            return
        result = self.result
        if terminal in self.flow.source_calls:
            result.taint_events.append(TaintEvent(
                kind="source", name=terminal,
                category=self.flow.source_calls[terminal], line=node.lineno,
            ))
        if terminal in self.flow.sink_calls and TAINT in incoming:
            result.taint_events.append(TaintEvent(
                kind="sink", name=terminal,
                category=self.flow.sink_calls[terminal], line=node.lineno,
            ))
        if terminal in self.recon.concentrators:
            private = incoming - self.recon.public_fragments - TAINTED
            if len(private) >= 2:
                result.concentrations.append(ConcentrationEvent(
                    call=terminal, fragments=tuple(sorted(private)),
                    line=node.lineno,
                ))
        for edge in matched:
            result.derivations.append(DerivationEvent(
                family=edge.family, call=edge.call,
                adds=tuple(sorted(edge.adds)), line=node.lineno,
            ))

    def _record_contribs(
        self,
        targets: Tuple[str, ...],
        positional: List[FrozenSet[str]],
        keywords: List[Tuple[str, FrozenSet[str]]],
        spread: FrozenSet[str],
    ) -> None:
        for target in targets:
            params = self.analysis.project.functions[target].params
            contrib = [(param, spread) for param in params] if spread else []
            contrib += [(param, value)
                        for param, value in zip(params, positional) if value]
            contrib += [(name, value)
                        for name, value in keywords if value and name in params]
            if contrib:
                sink = self.result.param_contribs.setdefault(target, {})
                for param, value in contrib:
                    sink.setdefault(param, set()).update(value)


def _join(into: State, other: State) -> None:
    for name, value in other.items():
        current = into.get(name)
        if current is None:
            into[name] = value
        elif current is not value:
            into[name] = current | value


class KeyMaterialAnalysis:
    """Whole-program fixpoint over all function summaries."""

    def __init__(self, project: Project, flow: "KeyFlowConfig",
                 recon: "KeyReconConfig") -> None:
        self.project = project
        self.flow = flow
        self.recon = recon
        self.summaries: Dict[str, Summary] = {
            name: Summary() for name in project.functions
        }
        self.fields: Dict[str, Set[str]] = {}
        self.results: Dict[str, FunctionResult] = {}
        self._cfgs: Dict[str, CFG] = {}
        self._preds: Dict[str, List[List[int]]] = {}
        #: A constant subscript key names fragments only, never taint.
        self.key_values: Dict[str, FrozenSet[str]] = {
            attr: frozenset(frags) for attr, frags in recon.fragment_attrs.items()
        }
        #: What an attribute load mints: KeyFlow's source attributes
        #: taint, KeyRecon's fragment attributes name their fragments.
        self.attr_values = dict(self.key_values)
        for attr in flow.source_attrs:
            self.attr_values[attr] = self.attr_values.get(attr, EMPTY) | TAINTED
        self.edges_by_call: Dict[str, list] = {}
        for edge in recon.derivations:
            self.edges_by_call.setdefault(edge.call, []).append(edge)

    def cfg_for(self, name: str) -> CFG:
        if name not in self._cfgs:
            self._cfgs[name] = build_cfg(self.project.functions[name].node)
        return self._cfgs[name]

    def preds_for(self, name: str) -> List[List[int]]:
        """Node index -> its CFG predecessors, for function ``name``."""
        if name not in self._preds:
            nodes = self.cfg_for(name).nodes
            preds: List[List[int]] = [[] for _ in nodes]
            for node in nodes:
                for dst, _ in node.succs:
                    preds[dst].append(node.index)
            self._preds[name] = preds
        return self._preds[name]

    def run(self, initial_order: Optional[Sequence[str]] = None) -> "KeyMaterialAnalysis":
        """Iterate to the least fixpoint, then collect final results.

        ``initial_order`` permutes the starting worklist; because the
        global facts are monotone the fixpoint — and therefore every
        reported result — is identical for any order.
        """
        project = self.project
        names = (
            list(initial_order)
            if initial_order is not None
            else project.sorted_names()
        )
        worklist = deque(names)
        pending = set(names)

        def enqueue(name: str) -> None:
            if name in self.summaries and name not in pending:
                pending.add(name)
                worklist.append(name)

        while worklist:
            name = worklist.popleft()
            pending.discard(name)
            result = _FunctionRun(self, project.functions[name]).run(collect=False)
            summary = self.summaries[name]

            if not result.returns <= summary.returns:
                summary.returns |= result.returns
                for caller in sorted(project.callers_of(name)):
                    enqueue(caller)
            for attr in sorted(result.field_writes):
                known = self.fields.setdefault(attr, set())
                if not result.field_writes[attr] <= known:
                    known |= result.field_writes[attr]
                    for reader in sorted(project.readers_of(attr)):
                        enqueue(reader)
            for callee in sorted(result.param_contribs):
                params = self.summaries[callee].params
                grew = False
                for param, value in result.param_contribs[callee].items():
                    known = params.setdefault(param, set())
                    if not value <= known:
                        known |= value
                        grew = True
                if grew:
                    enqueue(callee)

        # Deterministic final pass: every function once, sorted.
        self.results = {
            name: _FunctionRun(self, project.functions[name]).run(collect=True)
            for name in project.sorted_names()
        }
        return self

    # ------------------------------------------------------------------
    def leak_set(self) -> List[str]:
        """KeyFlow's leak set: sorted full names of functions where
        tainted data is live or a source/sink event fires — the static
        superset checked against KeySan's dynamic sites."""
        return sorted(
            name
            for name, result in self.results.items()
            if TAINT in result.resident or result.taint_events
        )


def shared_fixpoint(
    project: Project,
    flow: "KeyFlowConfig",
    recon: "KeyReconConfig",
    initial_order: Optional[Sequence[str]] = None,
) -> KeyMaterialAnalysis:
    """The key-material fixpoint over ``project`` for a config pair.

    KeyFlow and KeyRecon both project their reports out of it, so it is
    memoised on the project and compared by config identity: a
    ``repro analyze`` run computes it once.  A permuted
    ``initial_order`` (the determinism tests) always recomputes, and a
    different config pair replaces the memo.
    """
    if initial_order is not None:
        return KeyMaterialAnalysis(project, flow, recon).run(initial_order)
    memo = project.key_material
    if memo is None or memo.flow is not flow or memo.recon is not recon:
        memo = project.key_material = KeyMaterialAnalysis(project, flow, recon).run()
    return memo
