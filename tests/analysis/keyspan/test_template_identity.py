"""Identity lock for KeySpan's cost templates.

``reference_calls_in_expr`` and ``reference_build_template`` are a
frozen copy of the template builder from before its walk stopped
carrying one ``(node, Ticks)`` pair per node.  For every function of
the live tree, of the pinned snapshot and of a corner-case module,
:func:`build_template` must equal the reference: the base, every
``PricedCall`` and their order; and :func:`calls_in_expr` must price
the same call objects, in the same order, for every statement.
"""

import ast
import textwrap
from typing import List, Optional, Sequence, Tuple

from e2ebench import snapshot
from repro.analysis.ir.project import FunctionInfo, Project, call_terminal
from repro.analysis.keyspan.costs import (
    CostTemplate,
    PricedCall,
    _comprehension_multiplier,
    build_template,
    calls_in_expr,
    loop_multiplier,
)
from repro.analysis.keyspan.domain import Ticks


def reference_calls_in_expr(
    expr: ast.AST, multiplier: Ticks
) -> List[Tuple[ast.Call, Ticks]]:
    """All calls in an expression with their loop-adjusted multipliers
    (calls inside comprehension bodies run once per generated element;
    lambda bodies are skipped — they are separate functions)."""
    found: List[Tuple[ast.Call, Ticks]] = []
    stack: List[Tuple[ast.AST, Ticks]] = [(expr, multiplier)]
    while stack:
        node, mult = stack.pop()
        if isinstance(node, ast.Lambda):
            continue
        if isinstance(
            node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        ):
            inner = mult.mul(_comprehension_multiplier(node))
            for child in ast.iter_child_nodes(node):
                stack.append((child, inner))
            continue
        if isinstance(node, ast.Call):
            found.append((node, mult))
        for child in ast.iter_child_nodes(node):
            stack.append((child, mult))
    return found


def reference_build_template(info: FunctionInfo) -> CostTemplate:
    """One AST walk turning a function body into ``base + Σ calls``."""
    base = Ticks.zero()
    calls: List[PricedCall] = []

    def note_calls(expr: Optional[ast.AST], mult: Ticks) -> None:
        if expr is None:
            return
        for call, call_mult in reference_calls_in_expr(expr, mult):
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


def assert_templates_equal(project: Project) -> None:
    assert project.functions
    for name in project.sorted_names():
        info = project.functions[name]
        assert build_template(info) == reference_build_template(info), name
        for node in ast.walk(info.node):
            if isinstance(node, ast.stmt):
                live = calls_in_expr(node, Ticks.one())
                frozen = reference_calls_in_expr(node, Ticks.one())
                assert [(id(call), mult) for call, mult in live] == [
                    (id(call), mult) for call, mult in frozen
                ], (name, node.lineno)


def test_live_tree(shipped_project):
    assert_templates_equal(shipped_project)


def test_pinned_snapshot(tmp_path):
    project = Project.load([snapshot.extract(tmp_path)])
    assert len(project.functions) == snapshot.PINNED_FUNCTIONS
    assert_templates_equal(project)


CORNERS = """
from repro.crypto.rsa import PART_NAMES


def nested(rsa, n, conns):
    grid = [[part_bytes(rsa, part, i) for part in PART_NAMES] for i in range(n)]
    table = {i: {j: cell(i, j) for j in range(4)} for i in range(3)}
    picked = [keep(x) for x in items(conns) if wanted(x, probe(x))]
    hooks = [lambda y: inside_lambda(y, x) for x in range(2)]
    total = sum(weigh(c) for c in conns for _ in PART_NAMES if ok(c))
    return grid, table, picked, hooks, total


def chained(a, b):
    first = f(a)(b)
    second = g(a).h(b)(k(a))
    for item in make(a)(b):
        use(item)(other(item))
    while poll(a)(b):
        step(a)
    with opener(a)(b) as handle:
        handle.read()(more())
    return first, second


def headers(conn):
    for part in [bn_bin2bn(p) for p in PART_NAMES]:
        scrub(part)
    while conn.accept():
        serve(conn)
    if check(conn)(1):
        done(conn)
    try:
        risky()
    except Error:
        recover()
    finally:
        close(conn)
"""


def test_corner_cases(tmp_path):
    (tmp_path / "corners.py").write_text(textwrap.dedent(CORNERS))
    project = Project.load([tmp_path])
    assert_templates_equal(project)
    template = build_template(project.functions["corners.nested"])
    # Comprehensions multiply: PART_NAMES (6) inside range(n) (N).
    assert {call.terminal for call in template.calls} >= {
        "part_bytes", "cell", "probe", "weigh", "ok",
    }
    assert "inside_lambda" not in {call.terminal for call in template.calls}
