"""The deployment and copy-site vocabulary KeyCount and KeySpan share.

Both quantitative layers read one root table, one reachability pass and
one set of recognisers from :mod:`repro.analysis.ir.deployment`; these
tests pin what that table selects on the live tree and on the pinned
snapshot, and that neither layer package reaches into the other.
"""

import ast
from pathlib import Path

import pytest

from e2ebench import snapshot
from repro.analysis.ir import deployment
from repro.analysis.ir.deployment import (
    DEPLOYMENT,
    clear_flag,
    deployment_roots,
    is_zero_bytes,
    reachable,
)
from repro.analysis.ir.domain import Count
from repro.analysis.ir.project import Project

ANALYSIS = Path(deployment.__file__).resolve().parents[1]

ENTRY_POINTS = {
    "repro.apps.sshd.OpenSSHServer.start": Count.one(),
    "repro.apps.sshd.OpenSSHServer.stop": Count.one(),
    "repro.apps.sshd.OpenSSHServer.run_connection_cycle": Count.per_connection(),
    "repro.apps.sshd.OpenSSHServer.set_concurrency": Count.one(),
}


@pytest.fixture(scope="module")
def snapshot_project(tmp_path_factory):
    return Project.load([snapshot.extract(tmp_path_factory.mktemp("snapshot"))])


@pytest.fixture(params=["live", "snapshot"])
def project(request, shipped_project, snapshot_project):
    return shipped_project if request.param == "live" else snapshot_project


def _reference_reachable(project):
    """Breadth-first search from every function whose name ends with a
    root suffix, over resolved call targets."""
    roots = [
        name
        for name in project.sorted_names()
        if any(name.endswith(suffix) for suffix in DEPLOYMENT)
    ]
    found = set(roots)
    frontier = list(roots)
    while frontier:
        info = project.functions[frontier.pop()]
        for targets in info.call_targets.values():
            for callee in targets:
                if callee in project.functions and callee not in found:
                    found.add(callee)
                    frontier.append(callee)
    return found


class TestDeployment:
    def test_roots_are_the_four_openssh_entry_points(self, project):
        assert dict(deployment_roots(project)) == ENTRY_POINTS
        assert len(deployment_roots(project)) == len(ENTRY_POINTS)

    def test_reachable_equals_a_reference_search(self, project):
        found = reachable(project)
        assert found == _reference_reachable(project)
        assert set(ENTRY_POINTS) <= found < set(project.functions)


def _imported_modules(path: Path, package: str):
    """Absolute names of the modules one source file imports."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                parts = package.split(".")
                base = ".".join(parts[: len(parts) - node.level + 1])
                module = f"{base}.{module}" if module else base
            yield module
            yield from (f"{module}.{alias.name}" for alias in node.names)


@pytest.mark.parametrize(
    "layer, other", [("keyspan", "keycount"), ("keycount", "keyspan")]
)
def test_layer_packages_do_not_import_each_other(layer, other):
    forbidden = f"repro.analysis.{other}"
    package = f"repro.analysis.{layer}"
    files = sorted((ANALYSIS / layer).glob("*.py"))
    assert files
    for path in files:
        for module in _imported_modules(path, package):
            assert module != forbidden and not module.startswith(forbidden + "."), (
                f"{path.name} imports {module}"
            )


def _call(source: str) -> ast.Call:
    return ast.parse(source, mode="eval").body


class TestClearFlag:
    @pytest.mark.parametrize(
        "source, expected",
        [
            ("heap.free(buf, clear=True)", True),
            ("heap.free(buf, clear=False)", False),
            ("heap.free(buf)", False),
            ("heap.free(buf, clear=scrub_buffers)", "align_on_load"),
            ("heap.free(buf, clear=self.scrub)", "align_on_load"),
            ("heap.free(buf, clear=policy.kernel_zero)", "kernel_zero"),
            ("heap.free(buf, clear=kernel_zero)", "kernel_zero"),
            ("heap.free(buf, clear=wipe)", False),
            ("heap.free(buf, clear=should_clear())", False),
        ],
    )
    def test_forms(self, source, expected):
        result = clear_flag(_call(source))
        assert result == expected and type(result) is type(expected)

    def test_alias_table_is_a_parameter(self):
        call = _call("heap.free(buf, clear=scrub_buffers)")
        assert clear_flag(call, aliases={}) is False
        assert clear_flag(call, aliases={"scrub_buffers": "lib_align"}) == "lib_align"


class TestIsZeroBytes:
    @pytest.mark.parametrize(
        "source, expected",
        [
            ('b"\\x00" * size', True),
            ('size * b"\\x00"', True),
            ('b"\\x00\\x00"', True),
            ('b"\\x00" * 4 * n', True),
            ('b"\\x01" * size', False),
            ('b"\\x00\\x01"', False),
            ('b""', False),
            ('b"" * size', False),
            ('"\\x00" * size', False),
            ("data", False),
        ],
    )
    def test_forms(self, source, expected):
        assert is_zero_bytes(ast.parse(source, mode="eval").body) is expected
