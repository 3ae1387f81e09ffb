"""Whole-program model: modules, functions, and the call graph.

A :class:`Project` parses every ``*.py`` file under the analysis
roots, assigns each function a name identical to the runtime's
``f"{module}.{co_qualname}"`` (so static results are directly
comparable with KeySan's dynamic call-site attribution), and builds
the indexes the dataflow engine needs:

* ``functions`` — fully-qualified name -> :class:`FunctionInfo`;
* ``by_terminal`` — terminal name -> every function so named
  (the sound over-approximation used to resolve attribute calls like
  ``sys.read_all(...)`` without type inference);
* ``class_inits`` — class terminal name -> its ``__init__``
  (constructor calls transfer taint into the new object);
* ``attr_readers`` — attribute name -> functions that load it
  (re-analysis targets when the field becomes tainted).

Each :class:`FunctionInfo` also carries the function's call facts
(``terminals``, ``deep_terminals``, ``attrs_read``, ``call_targets``),
gathered in the one pass over each module that finds the defs, so no
layer walks a function's tree to learn what it calls.

Call resolution is *name-based and deliberately coarse*: a call may
resolve to several candidate functions, and analysis facts flow into
all of them.  Coarseness costs precision, never soundness — the
dynamic ⊆ static containment tests only work because resolution
over-approximates.

This module is shared infrastructure: every IR layer analyzes the
Project it builds, and KeyFlow and KeyRecon share one key-material
fixpoint over it (:mod:`repro.analysis.ir.dataflow`).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

#: The package's own source tree: the one default analysis root.
REPRO_ROOT = Path(__file__).resolve().parents[2]


@dataclass
class FunctionInfo:
    """One function/method definition and its precomputed facts."""

    #: ``module.qualname`` — matches the runtime's call-site strings.
    full_name: str
    module: str
    qualname: str
    #: POSIX path relative to the analysis root (stable across hosts).
    rel_path: str
    node: ast.AST
    #: Parameter names in call order, ``self``/``cls`` excluded.
    params: Tuple[str, ...]
    #: Attribute names this function loads (syntactic).
    attrs_read: frozenset = frozenset()
    #: id(ast.Call) -> candidate callee full names.
    call_targets: Dict[int, Tuple[str, ...]] = field(default_factory=dict)
    #: Terminal names of the function's own calls: those in the nodes
    #: :func:`iter_own_nodes` yields.
    terminals: frozenset = frozenset()
    #: Terminal names of every call under the def node, as ``ast.walk``
    #: finds them: nested defs and class bodies included, and the def's
    #: own decorators, defaults and annotations.
    deep_terminals: frozenset = frozenset()


def _param_names(node) -> Tuple[str, ...]:
    args = node.args
    names = [a.arg for a in args.posonlyargs + args.args]
    if names and names[0] in ("self", "cls"):
        names = names[1:]
    names.extend(a.arg for a in args.kwonlyargs)
    return tuple(names)


def call_terminal(node: ast.Call) -> Optional[str]:
    """Terminal name of the called function (``a.b.f()`` -> ``f``)."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


class _OwnFacts:
    """What one def's walk finds: its own calls, terminals and loaded
    attributes, and the terminals of every call under its node."""

    __slots__ = ("calls", "terminals", "attrs", "deep")

    def __init__(self) -> None:
        self.calls: List[ast.Call] = []
        self.terminals: Set[Optional[str]] = set()
        self.attrs: Set[str] = set()
        self.deep: Set[Optional[str]] = set()


class _FunctionCollector:
    """Collect every def (sync/async, nested, methods) with qualnames
    matching ``co_qualname`` (``Cls.meth``, ``outer.<locals>.inner``),
    and each def's call and attribute facts, in one pass over a module.

    A node's *owners* are the defs whose :func:`iter_own_nodes` yields
    it; it lies under every def around it (what ``ast.walk`` of each
    yields).  Defs are found in source pre-order, as
    ``ast.NodeVisitor`` visits them."""

    def __init__(self, module: str, rel_path: str) -> None:
        self.module = module
        self.rel_path = rel_path
        #: Each def with its own ``ast.Call`` nodes, left for
        #: :class:`Project` to resolve once every file is loaded.
        self.found: List[Tuple[FunctionInfo, List[ast.Call]]] = []
        #: AST node type -> its ``_fields`` in reverse, ``ctx`` left out.
        self._child_fields: Dict[type, Tuple[str, ...]] = {}

    def collect(self, tree: ast.Module) -> None:
        self._walk(tree.body, "", (), None, ())

    def _walk(
        self,
        roots: Iterable[ast.AST],
        prefix: str,
        owners: Tuple[_OwnFacts, ...],
        body_of: Optional[_OwnFacts],
        enclosing: Tuple[_OwnFacts, ...],
    ) -> None:
        """Visit ``roots`` and everything under them but nested defs and
        classes, which start walks of their own.  ``owners`` own the
        nodes visited; ``body_of`` is the def whose body ``roots`` is
        (it owns a def or class that is one of ``roots`` as well);
        ``enclosing`` is every def around ``roots``."""
        child_fields = self._child_fields
        for root in roots:
            stack = [root]
            while stack:
                node = stack.pop()
                kind = type(node)
                if kind is ast.FunctionDef or kind is ast.AsyncFunctionDef:
                    self._visit_def(
                        node, prefix, body_of if node is root else None, enclosing
                    )
                    continue
                if kind is ast.ClassDef:
                    inherited = (
                        (body_of,) if node is root and body_of is not None else ()
                    )
                    self._walk(
                        ast.iter_child_nodes(node), f"{prefix}{node.name}.",
                        inherited, None, enclosing,
                    )
                    continue
                if kind is ast.Call:
                    terminal = call_terminal(node)
                    for facts in owners:
                        facts.calls.append(node)
                        facts.terminals.add(terminal)
                    for facts in enclosing:
                        facts.deep.add(terminal)
                elif kind is ast.Attribute and type(node.ctx) is ast.Load:
                    for facts in owners:
                        facts.attrs.add(node.attr)
                # ``ast.iter_child_nodes``, inlined and pushed in reverse
                # so that defs pop in source order; ``ctx`` leaves skipped.
                fields = child_fields.get(kind)
                if fields is None:
                    fields = child_fields[kind] = tuple(
                        name for name in reversed(kind._fields) if name != "ctx"
                    )
                for name in fields:
                    value = getattr(node, name, None)
                    if type(value) is list:
                        for item in reversed(value):
                            if isinstance(item, ast.AST):
                                stack.append(item)
                    elif isinstance(value, ast.AST):
                        stack.append(value)

    def _visit_def(
        self,
        node,
        prefix: str,
        body_of: Optional[_OwnFacts],
        enclosing: Tuple[_OwnFacts, ...],
    ) -> None:
        qual = prefix + node.name
        info = FunctionInfo(
            full_name=f"{self.module}.{qual}",
            module=self.module,
            qualname=qual,
            rel_path=self.rel_path,
            node=node,
            params=_param_names(node),
        )
        facts = _OwnFacts()
        self.found.append((info, facts.calls))
        inherited = (body_of,) if body_of is not None else ()
        enclosing = enclosing + (facts,)
        # Decorators, defaults and annotations lie under this def for
        # ``ast.walk``; only ``body_of``'s own-node walk reaches them.
        header = [
            child for child in ast.iter_child_nodes(node) if child not in node.body
        ]
        self._walk(header, prefix, inherited, None, enclosing)
        self._walk(
            node.body, f"{qual}.<locals>.", inherited + (facts,), facts, enclosing
        )
        facts.terminals.discard(None)
        facts.deep.discard(None)
        info.terminals = frozenset(facts.terminals)
        # Most defs hold no nested def or header call: share the set.
        info.deep_terminals = (
            info.terminals if facts.deep == facts.terminals else frozenset(facts.deep)
        )
        info.attrs_read = frozenset(facts.attrs)


def _own_statements(func_node) -> List[ast.stmt]:
    """The function's body with nested def/class bodies excluded (they
    are analyzed as their own functions)."""
    return list(func_node.body)


def iter_own_nodes(func_node) -> Iterable[ast.AST]:
    """Walk a function's body without descending into nested defs or
    classes (lambdas *are* descended into: they share the scope).

    A def or class that is itself a statement of the body is walked,
    header and body, down to the defs and classes inside it."""
    stack: List[ast.AST] = list(_own_statements(func_node))
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            stack.append(child)


def analysis_roots(paths: Optional[Sequence[Path]] = None) -> List[Path]:
    """The roots to analyze: ``paths``, or the shipped tree when
    ``paths`` is missing or empty."""
    return [Path(p) for p in paths] if paths else [REPRO_ROOT]


def discover_files(paths: Sequence[Path]) -> List[Tuple[Path, Path]]:
    """Expand files/directories into sorted ``(root, file)`` pairs."""
    pairs: List[Tuple[Path, Path]] = []
    for entry in paths:
        entry = Path(entry)
        if entry.is_dir():
            for file_path in sorted(entry.rglob("*.py")):
                pairs.append((entry, file_path))
        elif entry.is_file():
            pairs.append((entry.parent, entry))
        else:
            raise FileNotFoundError(f"analysis: no such file or directory: {entry}")
    return pairs


@dataclass(frozen=True)
class ParsedFile:
    """One source file, read and parsed once for every consumer."""

    root: Path
    path: Path
    #: POSIX path relative to ``root`` (also the parse's filename).
    rel_path: str
    source: str
    tree: ast.Module


def parse_files(pairs: Iterable[Tuple[Path, Path]]) -> Iterator[ParsedFile]:
    """Read and parse each ``(root, file)`` pair, one at a time.

    A stream, not a list: a consumer drops each tree when it is done
    with it, so a whole-tree load never holds every module at once."""
    for root, file_path in pairs:
        rel_path = file_path.relative_to(root).as_posix()
        source = file_path.read_text(encoding="utf-8")
        yield ParsedFile(
            root, file_path, rel_path, source, ast.parse(source, filename=rel_path)
        )


def module_name_for(root: Path, file_path: Path) -> str:
    """Runtime import name of ``file_path`` under analysis root
    ``root``.  When the root is itself a package directory (has an
    ``__init__.py``), its name prefixes the dotted path — analyzing
    ``src/repro`` yields ``repro.kernel.vm`` etc., exactly the module
    strings KeySan reports."""
    rel = file_path.relative_to(root)
    parts = list(rel.with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    if (root / "__init__.py").exists():
        parts = [root.name] + parts
    return ".".join(parts) if parts else root.name


class Project:
    """Parsed modules + function indexes + resolved call graph."""

    def __init__(self) -> None:
        self.functions: Dict[str, FunctionInfo] = {}
        self.by_terminal: Dict[str, Tuple[str, ...]] = {}
        self.class_inits: Dict[str, Tuple[str, ...]] = {}
        self.attr_readers: Dict[str, Set[str]] = {}
        self.callers: Dict[str, Set[str]] = {}
        #: module name -> {imported local name -> imported terminal}.
        self._imports: Dict[str, Dict[str, str]] = {}
        #: module name -> {module-level def name -> full name}.
        self._module_defs: Dict[str, Dict[str, str]] = {}
        #: full name -> its own ``ast.Call`` nodes, until they resolve.
        self._own_calls: Dict[str, List[ast.Call]] = {}
        self.files: List[str] = []
        #: The key-material fixpoint last computed over this build
        #: (:func:`repro.analysis.ir.dataflow.shared_fixpoint`).
        self.key_material = None

    # ------------------------------------------------------------------
    # loading
    # ------------------------------------------------------------------
    @classmethod
    def load(
        cls,
        paths: Sequence[Path],
        files: Optional[Sequence[Tuple[Path, Path]]] = None,
        parsed: Optional[Iterable[ParsedFile]] = None,
    ) -> "Project":
        """Parse all sources.  ``files`` (root, file) pairs override
        path discovery — the determinism test feeds shuffled orders
        through it; results must not depend on the order.  ``parsed``
        overrides both with an already-parsed stream (``repro analyze``
        lints each file as it passes through); no tree or source text
        is kept once the load returns."""
        project = cls()
        if parsed is None:
            pairs = list(files) if files is not None else discover_files(paths)
            parsed = parse_files(pairs)
        for record in parsed:
            project._add_file(record)
        project._index()
        return project

    def _add_file(self, record: ParsedFile) -> None:
        module = module_name_for(record.root, record.path)
        rel_path = record.rel_path
        tree = record.tree
        collector = _FunctionCollector(module, rel_path)
        collector.collect(tree)
        for info, calls in collector.found:
            self.functions[info.full_name] = info
            self._own_calls[info.full_name] = calls
        self.files.append(rel_path)
        # module-level imports and defs, for Name-call resolution
        imports: Dict[str, str] = {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    imports[alias.asname or alias.name] = alias.name
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    imports[local] = alias.name
        self._imports[module] = imports
        self._module_defs[module] = {
            node.name: f"{module}.{node.name}"
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }

    # ------------------------------------------------------------------
    # indexes + call resolution
    # ------------------------------------------------------------------
    def _index(self) -> None:
        self.files.sort()
        by_terminal: Dict[str, Set[str]] = {}
        class_inits: Dict[str, Set[str]] = {}
        for full_name, info in self.functions.items():
            terminal = info.qualname.rsplit(".", 1)[-1]
            by_terminal.setdefault(terminal, set()).add(full_name)
            if terminal == "__init__" and "." in info.qualname:
                owner = info.qualname.rsplit(".", 2)[-2]
                class_inits.setdefault(owner, set()).add(full_name)
        self.by_terminal = {
            name: tuple(sorted(targets)) for name, targets in by_terminal.items()
        }
        self.class_inits = {
            name: tuple(sorted(targets)) for name, targets in class_inits.items()
        }
        for info in self.functions.values():
            self._resolve_function(info, self._own_calls[info.full_name])
        self._own_calls = {}
        for caller, info in self.functions.items():
            for targets in info.call_targets.values():
                for callee in targets:
                    self.callers.setdefault(callee, set()).add(caller)

    def _resolve_function(self, info: FunctionInfo, calls: List[ast.Call]) -> None:
        for node in calls:
            info.call_targets[id(node)] = self._resolve_call(info, node)
        for attr in info.attrs_read:
            self.attr_readers.setdefault(attr, set()).add(info.full_name)

    def _resolve_call(
        self, info: FunctionInfo, node: ast.Call
    ) -> Tuple[str, ...]:
        terminal = call_terminal(node)
        if terminal is None:
            return ()
        targets: Set[str] = set()
        if isinstance(node.func, ast.Name):
            # precise first: module-level def, then explicit import
            local = self._module_defs.get(info.module, {}).get(terminal)
            if local is not None:
                return (local,)
            imported = self._imports.get(info.module, {}).get(terminal)
            if imported is not None:
                terminal = imported.rsplit(".", 1)[-1]
            targets.update(self.class_inits.get(terminal, ()))
            if not targets:
                targets.update(self.by_terminal.get(terminal, ()))
        else:
            # attribute call: every function/ctor with this terminal name
            targets.update(self.by_terminal.get(terminal, ()))
            targets.update(self.class_inits.get(terminal, ()))
        return tuple(sorted(targets))

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def sorted_names(self) -> List[str]:
        return sorted(self.functions)

    def callers_of(self, full_name: str) -> Set[str]:
        return self.callers.get(full_name, set())

    def readers_of(self, attr: str) -> Set[str]:
        return self.attr_readers.get(attr, set())


def load_project(
    paths: Optional[Sequence[Path]] = None,
    files: Optional[Sequence[Tuple[Path, Path]]] = None,
    project: Optional[Project] = None,
) -> Project:
    """The IR build a layer analyzes: ``project`` when the caller has
    one already, else a fresh parse of :func:`analysis_roots`."""
    if project is not None:
        return project
    return Project.load(analysis_roots(paths), files=files)
