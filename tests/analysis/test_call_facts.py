"""The IR's per-function facts equal the walks they replace.

``Project.load`` gathers each function's call and attribute facts in
its one pass over a module.  For every function of the live tree, of
the pinned snapshot and of small corner-case sources they must equal
what a walk of that function finds:

* ``terminals`` - the Call terminals ``iter_own_nodes`` yields;
* ``deep_terminals`` - the Call terminals ``ast.walk`` of the def yields;
* ``call_targets`` - one entry per ``ast.Call`` ``iter_own_nodes`` yields;
* ``attrs_read`` - the loaded attributes ``iter_own_nodes`` yields.
"""

import ast
import textwrap

import pytest

from e2ebench import snapshot
from repro.analysis.ir.project import Project, call_terminal, iter_own_nodes


def walked_facts(info):
    own = list(iter_own_nodes(info.node))
    own_calls = [node for node in own if isinstance(node, ast.Call)]
    return {
        "terminals": {call_terminal(call) for call in own_calls} - {None},
        "deep_terminals": {
            call_terminal(node)
            for node in ast.walk(info.node)
            if isinstance(node, ast.Call)
        } - {None},
        "call_ids": {id(call) for call in own_calls},
        "attrs_read": {
            node.attr
            for node in own
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        },
    }


def ir_facts(info):
    return {
        "terminals": info.terminals,
        "deep_terminals": info.deep_terminals,
        "call_ids": set(info.call_targets),
        "attrs_read": info.attrs_read,
    }


def assert_facts_equal_walks(project):
    assert project.functions
    for name, info in project.functions.items():
        assert ir_facts(info) == walked_facts(info), name


def test_live_tree(shipped_project):
    assert_facts_equal_walks(shipped_project)


def test_pinned_snapshot(tmp_path):
    root = snapshot.extract(tmp_path)
    project = Project.load([root])
    assert len(project.functions) == snapshot.PINNED_FUNCTIONS
    assert_facts_equal_walks(project)


CORNERS = '''
import functools


@functools.lru_cache(maxsize=make_size())
def decorated(x=default_arg(), *, y: annot_kw() = kw_default()) -> return_annot():
    return body_call(x).field


def with_lambda(items):
    key = lambda item: lambda_body(item, default=lambda_default())
    return sorted(items, key=key)


async def coro(reader):
    data = await reader.read_chunk()
    async with opener() as handle:
        async for line in lines(handle):
            consume(line)
    return [await later(x) for x in data]


def outer():
    before()

    class Inner(base_of(), metaclass=meta_of()):
        attr = class_body_call()

        def method(self):
            return method_call(self.field)

        @staticmethod
        def helper(z=helper_default()):
            return helper_call()

        class Deeper:
            deeper_attr = deeper_class_call()

    if flag():
        def in_branch():
            return branch_call()

    def direct(w=direct_default()):
        direct_call()

        def innermost():
            return innermost_call()

    return Inner
'''

#: qualname -> (terminals, deep_terminals).  A def or class that is
#: itself a statement of a function's body is walked by
#: ``iter_own_nodes`` (``outer`` owns ``Inner``'s body statements and
#: ``direct``'s calls; ``direct`` owns ``innermost``'s); any deeper def
#: or class is not (``in_branch``, ``Inner.method``).
EXPECTED = {
    "decorated": (
        {"body_call"},
        {"lru_cache", "make_size", "default_arg", "annot_kw", "kw_default",
         "return_annot", "body_call"},
    ),
    "with_lambda": (
        {"lambda_body", "lambda_default", "sorted"},
        {"lambda_body", "lambda_default", "sorted"},
    ),
    "coro": (
        {"read_chunk", "opener", "lines", "consume", "later"},
        {"read_chunk", "opener", "lines", "consume", "later"},
    ),
    "outer": (
        {"before", "base_of", "meta_of", "class_body_call", "flag",
         "direct_default", "direct_call"},
        {"before", "base_of", "meta_of", "class_body_call", "method_call",
         "helper_default", "helper_call", "deeper_class_call", "flag",
         "branch_call", "direct_default", "direct_call", "innermost_call"},
    ),
    "outer.<locals>.Inner.method": ({"method_call"}, {"method_call"}),
    "outer.<locals>.Inner.helper": (
        {"helper_call"}, {"helper_default", "helper_call"},
    ),
    "outer.<locals>.in_branch": ({"branch_call"}, {"branch_call"}),
    "outer.<locals>.direct": (
        {"direct_call", "innermost_call"},
        {"direct_default", "direct_call", "innermost_call"},
    ),
    "outer.<locals>.direct.<locals>.innermost": (
        {"innermost_call"}, {"innermost_call"},
    ),
}


@pytest.fixture(scope="module")
def corners(tmp_path_factory):
    path = tmp_path_factory.mktemp("corners") / "corners.py"
    path.write_text(textwrap.dedent(CORNERS), encoding="utf-8")
    return Project.load([path])


def test_corner_cases_equal_walks(corners):
    assert_facts_equal_walks(corners)


@pytest.mark.parametrize("qualname", sorted(EXPECTED))
def test_corner_case_facts(corners, qualname):
    info = corners.functions[f"corners.{qualname}"]
    terminals, deep = EXPECTED[qualname]
    assert info.terminals == terminals
    assert info.deep_terminals == deep


def test_corner_defs_found_in_source_order(corners):
    assert [info.qualname for info in corners.functions.values()] == [
        "decorated", "with_lambda", "coro", "outer",
        "outer.<locals>.Inner.method", "outer.<locals>.Inner.helper",
        "outer.<locals>.in_branch", "outer.<locals>.direct",
        "outer.<locals>.direct.<locals>.innermost",
    ]


def test_shadowed_def_keeps_the_later_facts(tmp_path):
    """A name defined twice keeps the first slot and the later body,
    like a dict assignment - and only the later body's attributes
    reach ``attr_readers``."""
    path = tmp_path / "twice.py"
    path.write_text(
        "def f(a):\n    return first(a.old)\n\n"
        "def g():\n    pass\n\n"
        "def f(a):\n    return second(a.new)\n",
        encoding="utf-8",
    )
    project = Project.load([path])
    assert list(project.functions) == ["twice.f", "twice.g"]
    info = project.functions["twice.f"]
    assert info.terminals == info.deep_terminals == {"second"}
    assert info.attrs_read == {"new"}
    assert project.readers_of("new") == {"twice.f"}
    assert project.readers_of("old") == set()
