"""The analyze meta-command: six layers, one IR build, one SARIF."""

import ast
import gc
import importlib
import json
import random
import sys
import types
from pathlib import Path

import pytest

from repro.analysis import lint as lint_module
from repro.analysis import runall
from repro.analysis.ir import project as ir_project
from repro.analysis.ir.project import (
    Project,
    analysis_roots,
    discover_files,
    parse_files,
)
from repro.analysis.keyspan.config import MINT_CALLS
from repro.analysis.lint import lint_file, lint_paths
from repro.analysis.runall import REPRO_ROOT, LAYERS, parse_layers, run_all
from repro.analysis.sarif import merge_sarif_logs, validate_sarif

LINT_FIXTURES = Path(__file__).parent / "lint_fixtures"


@pytest.fixture(scope="module")
def result():
    return run_all(check=True)


class TestRunAll:
    def test_layer_roster(self):
        assert LAYERS == (
            "keylint", "keyflow", "keystate", "keycount", "keyrecon",
            "keyspan",
        )

    def test_shipped_tree_passes_the_gate(self, result):
        assert result.violations == []
        assert all(drift.ok for drift in result.drifts.values())
        assert result.ok

    def test_every_ir_layer_produced_a_report(self, result):
        assert set(result.reports) == {
            "keyflow", "keystate", "keycount", "keyrecon", "keyspan"
        }
        for report in result.reports.values():
            assert report.findings is not None

    def test_merged_sarif_has_one_run_per_layer(self, result):
        doc = result.to_sarif()
        names = [run["tool"]["driver"]["name"] for run in doc["runs"]]
        assert names == list(LAYERS)
        assert validate_sarif(doc) == []

    def test_rule_ids_unique_within_and_across_runs(self, result):
        """Every run declares each rule once, every result references a
        declared rule, and no rule id is shared between layers — a
        SARIF viewer aggregating the merged log can key on ruleId
        alone."""
        doc = result.to_sarif()
        seen = {}
        for run in doc["runs"]:
            layer = run["tool"]["driver"]["name"]
            ids = [rule["id"] for rule in run["tool"]["driver"]["rules"]]
            assert len(ids) == len(set(ids)), layer
            for rule_id in ids:
                assert rule_id not in seen, (
                    f"rule {rule_id!r} declared by both {seen.get(rule_id)} "
                    f"and {layer}"
                )
                seen[rule_id] = layer
            for res in run["results"]:
                assert res["ruleId"] in ids, (layer, res["ruleId"])

    def test_run_ordering_and_payload_are_stable(self, result):
        """Two full runs serialize byte-identically — run order included."""
        again = run_all(check=True)
        assert json.dumps(result.to_sarif(), sort_keys=True) == json.dumps(
            again.to_sarif(), sort_keys=True
        )

    def test_json_payload_serializes(self, result):
        payload = json.loads(json.dumps(result.to_json_dict(), sort_keys=True))
        assert set(payload["layers"]) == set(LAYERS)

    def test_text_report_sections_every_layer(self, result):
        text = result.render_text()
        for layer in LAYERS:
            assert layer in text

    def test_single_shared_project_build(self, monkeypatch):
        """One ``Project.load`` and one ``ast.parse`` per discovered
        file: keylint lints the IR build's trees, and no layer parses
        again."""
        calls = []
        original = Project.load.__func__

        def counting_load(cls, *args, **kwargs):
            calls.append(1)
            return original(cls, *args, **kwargs)

        parsed = []
        original_parse = ast.parse

        def counting_parse(source, filename="<unknown>", *args, **kwargs):
            parsed.append(filename)
            return original_parse(source, filename, *args, **kwargs)

        monkeypatch.setattr(Project, "load", classmethod(counting_load))
        # ``ir.project`` and ``lint`` both reach ``ast.parse`` through
        # the one ``ast`` module, and so would any layer.
        assert ir_project.ast is lint_module.ast is ast
        monkeypatch.setattr(ast, "parse", counting_parse)
        result = run_all()
        assert sum(calls) == 1
        discovered = discover_files(analysis_roots(None))
        assert len(parsed) == len(discovered) == len(result.files)
        assert sorted(parsed) == result.files

    def test_no_layer_walks_function_trees_for_calls(self, monkeypatch):
        """The IR build records each function's calls in its one pass
        over each module, so it walks no function tree, and no layer
        walks one to learn what a function calls.  The one walk left is
        KeySpan's alias closure, and only over functions that mint."""
        walks = []
        defs = (ast.FunctionDef, ast.AsyncFunctionDef)

        def counting(original):
            def wrapper(node):
                if isinstance(node, defs):
                    frame = sys._getframe(1)
                    caller = (frame.f_globals["__name__"], frame.f_code.co_name)
                    walks.append((caller, node))
                return original(node)
            return wrapper

        monkeypatch.setattr(ast, "walk", counting(ast.walk))
        own_nodes = ir_project.iter_own_nodes
        counting_own_nodes = counting(own_nodes)
        patched = []
        for name, module in list(sys.modules.items()):
            if name.startswith("repro.") and (
                getattr(module, "iter_own_nodes", None) is own_nodes
            ):
                monkeypatch.setattr(module, "iter_own_nodes", counting_own_nodes)
                patched.append(name)
        assert {"repro.analysis.ir.project", "repro.analysis.keyspan.engine"} <= set(
            patched
        )
        projects = []
        original_load = Project.load.__func__

        def keeping_load(cls, *args, **kwargs):
            projects.append(original_load(cls, *args, **kwargs))
            return projects[-1]

        monkeypatch.setattr(Project, "load", classmethod(keeping_load))
        run_all()
        (project,) = projects
        assert {caller for caller, _ in walks} <= {
            ("repro.analysis.keyspan.engine", "_alias_closure")
        }
        minting = {
            id(info.node)
            for info in project.functions.values()
            if not info.terminals.isdisjoint(MINT_CALLS)
        }
        assert minting and len(minting) < len(project.functions) / 20
        assert all(id(node) in minting for _, node in walks)


class TestKeylintParity:
    """keylint over the shared parse reports exactly what ``lint_paths``
    reports, in the same order, whatever order the files arrive in."""

    @pytest.mark.parametrize(
        "root,expected_count", [(LINT_FIXTURES, 33), (REPRO_ROOT, 0)],
        ids=["lint_fixtures", "shipped_tree"],
    )
    def test_violations_equal_lint_paths(self, root, expected_count):
        pairs = discover_files([root])
        random.Random(f"keylint-parity|{root.name}").shuffle(pairs)
        result = run_all(paths=[root], files=pairs, layers=["keylint"])
        expected = lint_paths([root])
        assert len(expected) == expected_count
        assert result.violations == expected

    def test_file_listed_twice_is_linted_twice_in_path_order(self):
        pairs = discover_files([LINT_FIXTURES])
        twice = next(pair for pair in pairs if pair[1].name == "bad_bn_free.py")
        pairs.append(twice)
        random.Random("keylint-parity|twice").shuffle(pairs)
        result = run_all(paths=[LINT_FIXTURES], files=pairs, layers=["keylint"])
        expected = [
            violation
            for root, file_path in sorted(pairs, key=lambda p: p[1].as_posix())
            for violation in lint_file(file_path, root=root)
        ]
        assert result.violations == expected
        once = lint_file(twice[1], root=twice[0])
        assert len(result.violations) == len(lint_paths([LINT_FIXTURES])) + len(
            once
        )


class TestProjectKeepsNoSource:
    """A ``Project`` holds function nodes, never a module tree or a
    file's source text: a whole-snapshot load must not pin every file."""

    def test_no_tree_or_source_reachable_after_load(self):
        records = list(parse_files(discover_files([LINT_FIXTURES])))
        project = Project.load([LINT_FIXTURES], parsed=iter(records))
        held = {id(r.tree) for r in records} | {
            id(r.source) for r in records if r.source
        }
        seen = set()
        stack = [project]
        while stack:
            obj = stack.pop()
            if id(obj) in seen or isinstance(
                obj, (type, types.ModuleType, types.FunctionType)
            ):
                continue
            seen.add(id(obj))
            assert id(obj) not in held, type(obj).__name__
            assert not isinstance(obj, ast.Module)
            stack.extend(gc.get_referents(obj))
        assert len(project.functions) > 0


class TestLayerSelection:
    """``--layers``: one IR build, a subset of the stack, scoped gate."""

    def test_parse_defaults_to_everything(self):
        assert parse_layers(None) == LAYERS
        assert parse_layers("") == LAYERS

    def test_parse_normalizes_to_stack_order(self):
        assert parse_layers("keyspan,keylint") == ("keylint", "keyspan")
        assert parse_layers(" keyflow , keyflow ") == ("keyflow",)

    def test_parse_rejects_unknown_layers(self):
        with pytest.raises(ValueError, match="bogus"):
            parse_layers("keylint,bogus")

    def test_subset_runs_only_selected_layers(self):
        result = run_all(layers=("keylint", "keyspan"), check=True)
        assert result.layers == ("keylint", "keyspan")
        assert set(result.reports) == {"keyspan"}
        assert set(result.drifts) == {"keyspan"}
        assert result.ok

    def test_subset_sarif_has_one_run_per_selected_layer(self):
        result = run_all(layers=("keyflow", "keycount"))
        doc = result.to_sarif()
        names = [run["tool"]["driver"]["name"] for run in doc["runs"]]
        assert names == ["keyflow", "keycount"]
        text = result.render_text()
        assert "== keyflow ==" in text and "== keycount ==" in text
        assert "== keylint ==" not in text

    def test_verdict_reflects_only_selected_layers(self, tmp_path):
        # A tree with a lint violation passes a gate that excludes
        # keylint — the exit code is scoped to what actually ran.
        (tmp_path / "dirty.py").write_text(
            "def f(bn_free, rsa):\n    bn_free(rsa.d)\n", encoding="utf-8"
        )
        lint_gate = run_all(paths=[tmp_path], check=True, layers=("keylint",))
        assert not lint_gate.ok
        ir_gate = run_all(paths=[tmp_path], check=True, layers=("keyflow",))
        assert ir_gate.violations == []

    def test_unknown_layer_raises_before_the_ir_build(self):
        with pytest.raises(ValueError):
            run_all(layers=("keylint", "nonsense"))


class TestDefaultRoot:
    """Every layer and ``run_all`` share one default analysis root."""

    @pytest.mark.parametrize(
        "entry", ["keyflow", "keystate", "keycount", "keyrecon", "keyspan",
                  "run_all"],
    )
    def test_missing_or_empty_paths_mean_the_default_root(
        self, entry, tmp_path, monkeypatch
    ):
        tree = tmp_path / "pkg"
        tree.mkdir()
        (tree / "__init__.py").write_text("", encoding="utf-8")
        (tree / "mod.py").write_text("def f():\n    return 1\n",
                                     encoding="utf-8")
        monkeypatch.setattr(ir_project, "REPRO_ROOT", tree)
        if entry == "run_all":
            analyze = run_all
        else:
            analyze = importlib.import_module(f"repro.analysis.{entry}").analyze
        for paths in (None, []):
            assert analyze(paths=paths).files == ["__init__.py", "mod.py"]


class TestMergeSarif:
    def test_merge_concatenates_runs(self):
        a = {"version": "2.1.0", "$schema": "s", "runs": [{"x": 1}]}
        b = {"version": "2.1.0", "$schema": "s", "runs": [{"y": 2}, {"z": 3}]}
        merged = merge_sarif_logs([a, b])
        assert merged["runs"] == [{"x": 1}, {"y": 2}, {"z": 3}]
        assert merged["version"] == "2.1.0"

    def test_merge_rejects_empty_input(self):
        with pytest.raises(ValueError):
            merge_sarif_logs([])


class TestGateFailure:
    def test_lint_violation_fails_the_gate(self, tmp_path):
        (tmp_path / "dirty.py").write_text(
            "def f(bn_free, rsa):\n    bn_free(rsa.d)\n", encoding="utf-8"
        )
        result = run_all(paths=[tmp_path], check=True)
        assert not result.ok
        assert any(v.rule == "bn-free" for v in result.violations)

    def test_missing_path_raises(self):
        from pathlib import Path

        with pytest.raises(FileNotFoundError):
            run_all(paths=[Path("/nonexistent/tree")])

    def test_baseline_drift_is_isolated_per_tool(self, tmp_path):
        """A tree that mints a NEW keyrecon finding while every shipped
        entry goes STALE must report each tool's drift separately: the
        keyrecon-only finding shows up in keyrecon's drift and in no
        other tool's."""
        minting_id = (
            "full-key-reconstructible:minting_fixture.deliberately_minting:"
            "keygen:crt-exponent+factor+private-exponent"
        )
        (tmp_path / "minting_fixture.py").write_text(
            "def deliberately_minting(process, bits):\n"
            "    key = generate_rsa_key(process, bits)\n"
            "    return key\n",
            encoding="utf-8",
        )
        result = run_all(paths=[tmp_path], check=True)
        assert not result.ok
        assert minting_id in result.drifts["keyrecon"].new
        # the shipped baselines all reference the real tree: stale
        assert result.drifts["keyflow"].stale
        assert result.drifts["keyrecon"].stale
        for tool, drift in result.drifts.items():
            if tool == "keyrecon":
                continue
            assert minting_id not in drift.new, tool
            assert minting_id not in drift.stale, tool
