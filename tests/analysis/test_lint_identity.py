"""Identity lock for keylint's one-pass linter.

``ReferenceLinter`` keeps a frozen copy of the linter from before the
one-pass rewrite: an ``ast.NodeVisitor`` that re-walks each def and
lambda with ``reference_scope_nodes`` for its per-scope rules, with
``wall-clock-in-sim`` matching the root name of the call's base.  The
live :func:`lint_source` must equal it message for message, and in
order, over the live tree, the pinned snapshot, every lint fixture,
``tests/`` and a corner-case source, and must do so without a
``NodeVisitor`` walk or an ``ast.iter_child_nodes`` call.
"""

import ast
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Set, Tuple

import pytest

from e2ebench import snapshot
from repro.analysis.lint import (
    BLOCKING_CALLS,
    CLEAR_SCRUB_CALLS,
    DERIVED_SECRET_TOKENS,
    HOLD_SCRUB_CALLS,
    KEY_MINT_CALLS,
    LOG_SINKS,
    MEMALIGN_DEFINERS,
    PRIMARY_SECRET_TOKENS,
    RAW_BYTES_ALLOWED,
    RAW_VIEW_CALLS,
    REPRO_ERROR_NAMES,
    SECRET_PRODUCERS,
    SECRET_TOKENS,
    SNAPSHOT_ALLOWED,
    WALL_CLOCK_DATETIME_FUNCS,
    WALL_CLOCK_SCOPED,
    WALL_CLOCK_TIME_FUNCS,
    LintViolation,
    _call_name,
    _handler_exception_names,
    _identifier_tokens,
    _ignored_rules,
    _is_silent_body,
    _name_tokens,
    _root_name,
    _secret_exposures,
    lint_source,
)

TESTS_ROOT = Path(__file__).resolve().parents[1]
SRC_REPRO = TESTS_ROOT.parent / "src" / "repro"
FIXTURES = Path(__file__).parent / "lint_fixtures"


def reference_scope_nodes(node: ast.AST) -> Iterable[ast.AST]:
    """AST nodes of a function's own body, not descending into nested
    function or lambda scopes (those get their own per-scope checks).

    Not :func:`repro.analysis.ir.project.iter_own_nodes`: that one
    descends into lambdas and skips classes, this one skips lambdas
    (keylint checks them as scopes), descends into classes and covers
    the signature and decorators, so merging the two would move
    keylint's findings."""
    stack = list(ast.iter_child_nodes(node))
    while stack:
        sub = stack.pop()
        yield sub
        if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(sub))


class ReferenceLinter(ast.NodeVisitor):
    """The frozen reference: the NodeVisitor linter as it was."""

    def __init__(self, rel_path: str) -> None:
        self.rel_path = rel_path
        self.violations: List[LintViolation] = []
        self._snapshot_exempt = any(
            frag in rel_path for frag in SNAPSHOT_ALLOWED
        )
        self._raw_bytes_exempt = any(
            frag in rel_path for frag in RAW_BYTES_ALLOWED
        )
        self._wall_clock_scoped = any(
            frag in rel_path for frag in WALL_CLOCK_SCOPED
        )
        #: Local aliases of the ``time`` / ``datetime`` modules and of
        #: wall-clock functions imported by name (``from time import
        #: sleep as nap`` -> ``nap``).
        self._time_aliases: Set[str] = set()
        self._datetime_aliases: Set[str] = set()
        self._clock_name_imports: Set[str] = set()
        #: Function nesting stack of (name, memalign calls, has mlock).
        self._func_stack: List[Tuple[str, List[ast.Call], bool]] = []

    # ------------------------------------------------------------------
    def _flag(self, node: ast.AST, rule: str, message: str) -> None:
        self.violations.append(
            LintViolation(
                path=self.rel_path,
                line=node.lineno,
                col=node.col_offset,
                rule=rule,
                message=message,
            )
        )

    # ------------------------------------------------------------------
    # function scope tracking (memalign-mlock is a per-function rule)
    # ------------------------------------------------------------------
    def _check_derived_scrub(
        self, nodes: Sequence[ast.AST], scope_name: str
    ) -> None:
        """derived-secret-scrub: a scope that clear-scrubs the primary
        secret but leaves derived fragments (CRT exponents, Montgomery
        residues) it also touches unscrubbed."""
        primary_scrubs: List[Tuple[ast.Call, List[str]]] = []
        derived_seen: Set[str] = set()
        derived_scrubbed = False
        for sub in nodes:
            if isinstance(sub, ast.Name):
                derived_seen.update(_name_tokens(sub.id) & DERIVED_SECRET_TOKENS)
            elif isinstance(sub, ast.Attribute):
                derived_seen.update(_name_tokens(sub.attr) & DERIVED_SECRET_TOKENS)
            if not isinstance(sub, ast.Call):
                continue
            name = _call_name(sub)
            if name in CLEAR_SCRUB_CALLS and sub.args:
                tokens = _identifier_tokens(sub.args[0])
                if tokens & DERIVED_SECRET_TOKENS:
                    derived_scrubbed = True
                elif tokens & PRIMARY_SECRET_TOKENS:
                    primary_scrubs.append(
                        (sub, sorted(tokens & PRIMARY_SECRET_TOKENS))
                    )
            elif name == "drop_mont":
                clear = next(
                    (kw.value for kw in sub.keywords if kw.arg == "clear"), None
                )
                if isinstance(clear, ast.Constant) and clear.value is True:
                    derived_scrubbed = True
        if primary_scrubs and derived_seen and not derived_scrubbed:
            fragments = ", ".join(sorted(derived_seen))
            for call, hits in primary_scrubs:
                self._flag(
                    call,
                    "derived-secret-scrub",
                    f"{scope_name}() scrubs the primary secret "
                    f"({', '.join(hits)}) but leaves derived key state "
                    f"({fragments}) unscrubbed; CRT fragments and "
                    f"Montgomery residues reconstruct the key, so the "
                    f"half-scrub buys nothing (see keyrecon)",
                )

    def _check_long_lived(
        self, nodes: Sequence[ast.AST], scope_name: str
    ) -> None:
        """long-lived-secret: the scope mints key material, then blocks
        (network wait, session driver) with the copies still live — no
        scrub or mitigation handoff in between.  Own-scope calls are
        replayed in source order as the execution-order approximation."""
        calls: List[Tuple[int, int, str, ast.Call]] = []
        for sub in nodes:
            if isinstance(sub, ast.Call):
                name = _call_name(sub)
                if name is not None:
                    calls.append((sub.lineno, sub.col_offset, name, sub))
        calls.sort(key=lambda item: (item[0], item[1]))
        mint: Optional[Tuple[str, int]] = None
        for _, _, name, call in calls:
            if name in HOLD_SCRUB_CALLS:
                mint = None
            elif name in KEY_MINT_CALLS:
                if mint is None:
                    mint = (name, call.lineno)
            elif name in BLOCKING_CALLS and mint is not None:
                mint_name, mint_line = mint
                self._flag(
                    call,
                    "long-lived-secret",
                    f"{scope_name}() mints key material via {mint_name}() "
                    f"(line {mint_line}) and then blocks in {name}() "
                    f"before any scrub; every blocked tick is exposure "
                    f"window — scrub or hand off to a mitigation first",
                )
                mint = None  # one finding per held copy

    def _visit_scope(self, node, scope_name: str) -> None:
        self._func_stack.append((scope_name, [], False))
        nodes = list(reference_scope_nodes(node))
        self._check_derived_scrub(nodes, scope_name)
        self._check_long_lived(nodes, scope_name)
        self.generic_visit(node)
        name, memaligns, has_mlock = self._func_stack.pop()
        if name in MEMALIGN_DEFINERS:
            return  # the wrapper *is* the primitive
        if memaligns and not has_mlock:
            for call in memaligns:
                self._flag(
                    call,
                    "memalign-mlock",
                    f"{name}() allocates an aligned (secret-page) region "
                    f"without mlock()ing it in the same function; a "
                    f"swappable key page defeats RSA_memory_align",
                )

    def _visit_function(self, node) -> None:
        self._visit_scope(node, node.name)

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_Lambda(self, node: ast.Lambda) -> None:
        # A lambda is a function scope too: a module-level
        # ``lambda p: memalign(p, ...)`` must not slip past the
        # per-function memalign-mlock pairing check.
        self._visit_scope(node, "<lambda>")

    # ------------------------------------------------------------------
    # imports: wall-clock alias bookkeeping
    # ------------------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            if alias.name in ("time", "datetime"):
                if alias.name == "time":
                    self._time_aliases.add(local)
                else:
                    self._datetime_aliases.add(local)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "time":
            for alias in node.names:
                if alias.name in WALL_CLOCK_TIME_FUNCS:
                    self._clock_name_imports.add(alias.asname or alias.name)
        elif node.module == "datetime":
            for alias in node.names:
                if alias.name in ("datetime", "date"):
                    self._datetime_aliases.add(alias.asname or alias.name)
        self.generic_visit(node)

    def _check_wall_clock(self, node: ast.Call, name: Optional[str]) -> None:
        if not self._wall_clock_scoped or name is None:
            return
        func = node.func
        hit: Optional[str] = None
        if isinstance(func, ast.Attribute):
            # The whole root identifier, not its underscore parts:
            # ``sim_time.sleep()`` is not ``time.sleep()``.
            root = _root_name(func.value)
            if name in WALL_CLOCK_TIME_FUNCS and root in self._time_aliases:
                hit = f"time.{name}()"
            elif (
                name in WALL_CLOCK_DATETIME_FUNCS
                and root in self._datetime_aliases
            ):
                hit = f"datetime.{name}()"
        elif isinstance(func, ast.Name) and name in self._clock_name_imports:
            hit = f"{name}()"
        if hit is not None:
            self._flag(
                node,
                "wall-clock-in-sim",
                f"{hit} reads the host wall clock inside the simulator; "
                f"simulated components must charge SimClock virtual "
                f"microseconds so seeded runs stay byte-identical",
            )

    # ------------------------------------------------------------------
    # calls: bn-free, snapshot-scope, memalign-mlock bookkeeping
    # ------------------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        name = _call_name(node)
        self._check_wall_clock(node, name)
        if name == "bn_free" and node.args:
            tokens = _identifier_tokens(node.args[0])
            hits = sorted(tokens & SECRET_TOKENS)
            if hits:
                self._flag(
                    node,
                    "bn-free",
                    f"bn_free() of secret-hinted BIGNUM "
                    f"({', '.join(hits)}): digit bytes survive in the "
                    f"freed chunk; use bn_clear_free()",
                )
        elif name in RAW_VIEW_CALLS and isinstance(node.func, ast.Attribute):
            if not self._snapshot_exempt:
                self._flag(
                    node,
                    "snapshot-scope",
                    f"{name}() reads raw physical memory; only attacks/ "
                    f"and sanitizer/ may hold the core-dump primitives",
                )
        elif name == "drop_mont":
            clear = next(
                (kw.value for kw in node.keywords if kw.arg == "clear"), None
            )
            if not (isinstance(clear, ast.Constant) and clear.value is True):
                self._flag(
                    node,
                    "mont-clear",
                    "drop_mont() without clear=True leaves Montgomery "
                    "residues (function of the private exponent) in the "
                    "freed cache pages; pass clear=True",
                )
        if name in LOG_SINKS:
            exposed: List[str] = []
            for arg in list(node.args) + [
                kw.value for kw in node.keywords if kw.value is not None
            ]:
                exposed.extend(_secret_exposures(arg))
            if exposed:
                self._flag(
                    node,
                    "secret-in-log",
                    f"{name}() logs key material "
                    f"({', '.join(sorted(set(exposed)))}); a log line is "
                    f"an unscrubbable copy of the key — log lengths or "
                    f"fingerprints, never the bytes",
                )
        if name in MEMALIGN_DEFINERS and self._func_stack:
            fname, memaligns, has_mlock = self._func_stack[-1]
            memaligns.append(node)
            self._func_stack[-1] = (fname, memaligns, has_mlock)
        if name in ("mlock", "mlock2") and self._func_stack:
            fname, memaligns, _ = self._func_stack[-1]
            self._func_stack[-1] = (fname, memaligns, True)
        self.generic_visit(node)

    # ------------------------------------------------------------------
    # assignments: raw-secret-bytes
    # ------------------------------------------------------------------
    def _check_retention(self, targets: Sequence[ast.expr], value: Optional[ast.expr]) -> None:
        if value is None or self._raw_bytes_exempt:
            return
        attr_targets = [
            t for t in targets
            if isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name)
            and t.value.id == "self"
        ]
        if not attr_targets:
            return
        producers = sorted(
            {
                _call_name(sub)
                for sub in ast.walk(value)
                if isinstance(sub, ast.Call) and _call_name(sub) in SECRET_PRODUCERS
            }
            - {None}
        )
        if producers:
            for target in attr_targets:
                self._flag(
                    target,
                    "raw-secret-bytes",
                    f"self.{target.attr} retains raw key bytes from "
                    f"{', '.join(p + '()' for p in producers)}; key material "
                    f"must live in simulated memory, not on Python objects",
                )

    # ------------------------------------------------------------------
    # exception handlers: swallowed-error
    # ------------------------------------------------------------------
    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self._flag(
                node,
                "swallowed-error",
                "bare except: catches (and usually discards) every "
                "simulator fault; name the exceptions and handle them",
            )
        else:
            caught = sorted(_handler_exception_names(node) & REPRO_ERROR_NAMES)
            if caught and _is_silent_body(node.body):
                self._flag(
                    node,
                    "swallowed-error",
                    f"except {', '.join(caught)} with a do-nothing body "
                    f"silently swallows a simulator fault; record it "
                    f"(counter, log) or re-raise",
                )
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        self._check_retention(node.targets, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._check_retention([node.target], node.value)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_retention([node.target], node.value)
        self.generic_visit(node)


def reference_lint_source(source: str, rel_path: str) -> List[LintViolation]:
    tree = ast.parse(source, filename=rel_path)
    linter = ReferenceLinter(rel_path)
    linter.visit(tree)
    ignored = _ignored_rules(source)
    kept = [
        violation
        for violation in linter.violations
        if not (
            violation.line in ignored
            and ({violation.rule, "*"} & ignored[violation.line])
        )
    ]
    kept.sort(key=lambda v: (v.line, v.col, v.rule))
    return kept


def assert_same_as_reference(source: str, rel_path: str) -> List[LintViolation]:
    live = lint_source(source, rel_path)
    assert live == reference_lint_source(source, rel_path), rel_path
    return live


def assert_tree_same(root: Path) -> int:
    files = sorted(root.rglob("*.py"))
    assert files, root
    return sum(
        len(
            assert_same_as_reference(
                path.read_text(encoding="utf-8"), path.relative_to(root).as_posix()
            )
        )
        for path in files
    )


def test_live_tree():
    assert_tree_same(SRC_REPRO)


def test_pinned_snapshot(tmp_path):
    assert_tree_same(snapshot.extract(tmp_path))


def test_lint_fixtures():
    # Every fixture, each under its own relative path: 33 planted
    # violations, the kernel/ one path-scoped.
    assert assert_tree_same(FIXTURES) == 33


def test_tests_tree():
    # The fixtures again, now under analysis/lint_fixtures/..., plus
    # every test source with its inline snippets.
    assert assert_tree_same(TESTS_ROOT) > 0


CORNERS = '''
import functools

stamp = time.time()  # before ``import time``: not yet an alias
import time
import datetime as dt
from time import sleep as nap

alloc = lambda p: memalign(p)


def outer(rsa, key=lambda p: memalign(p), *, hook: annot(lambda: mlock(0)) = None):
    @decorate(lambda q: memalign(q, d2i_privatekey(q)))
    def inner(p=d2i_privatekey(rsa), *rest: transfer(1)) -> bn_free(rsa.d):
        class Holder:
            field = memalign(4)

            def method(self):
                bn_clear_free(self.d)
                return self.dmp1

            bn_clear_free(rsa.p)
            self.raw = rsa.d_bytes()
        return Holder

    mont = inner().dmq1
    print(f"{rsa.iqmp}", key=rsa.p_bytes())
    return [memalign(n) for n in range(3) if mlock(n)]


async def coro(rsa, conn):
    copy = d2i_privatekey(rsa)
    await conn.recv(1)
    async with lock(time.monotonic()):
        bn_clear_free(rsa.d)
        part = rsa.iqmp
    async for item in memalign(8):
        nap(1)
    return dt.datetime.now(), sim_time.sleep(1), time_source.time()


def ties(rsa, conn):
    d2i_privatekey(rsa)(conn)
    conn.transfer(1).d2i_privatekey(rsa).wait(2)
    conn.d2i_privatekey(rsa).transfer(1)
    open_connection(conn).poll(3)
    bn_clear_free(rsa.d).bn_clear_free(rsa.p)
    return rsa.dmp1, memalign(1).memalign(2)


def handlers(mem):
    try:
        mem.snapshot()
    except:
        pass
    try:
        drop_mont(mem)
    except (OutOfMemoryError, ValueError):
        "swallowed"
    drop_mont(mem, clear=True)
    return mem.raw_view()
'''


@pytest.mark.parametrize("rel_path", ["kernel/corners.py", "ssl/corners.py"])
def test_corner_cases(rel_path):
    violations = assert_same_as_reference(CORNERS, rel_path)
    rules = {violation.rule for violation in violations}
    assert {
        "bn-free", "derived-secret-scrub", "long-lived-secret",
        "memalign-mlock", "mont-clear", "raw-secret-bytes", "secret-in-log",
        "snapshot-scope", "swallowed-error",
    } <= rules
    assert ("wall-clock-in-sim" in rules) == rel_path.startswith("kernel/")


def test_one_pass_makes_no_visitor_or_child_walk(monkeypatch):
    tree = ast.parse(CORNERS)
    calls: List[str] = []

    def spy(name, original):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(
        ast.NodeVisitor, "generic_visit",
        spy("generic_visit", ast.NodeVisitor.generic_visit),
    )
    monkeypatch.setattr(
        ast, "iter_child_nodes", spy("iter_child_nodes", ast.iter_child_nodes)
    )
    violations = lint_source(CORNERS, "kernel/corners.py", tree=tree)
    assert violations
    assert calls == []
    # The spies see the reference's walk.
    reference_lint_source(CORNERS, "kernel/corners.py")
    assert {"generic_visit", "iter_child_nodes"} <= set(calls)
