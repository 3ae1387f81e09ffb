"""The ``repro analyze`` exit-code contract, across every IR layer.

Exit codes are API: CI branches on them.  The contract is

* ``0`` — analysis ran, gate (if requested) is clean;
* ``1`` — **drift only**: a healthy run against a healthy baseline
  that disagree (new or stale findings);
* ``2`` — bad input: an unreadable or unparsable analysis target, or
  a baseline file the loader rejects (malformed JSON, empty
  justification).

Each case runs ``analyze --check --layers <layer>`` with the layer's
baseline path pointed at a scratch file.  A regression here means a CI
job starts mistaking "the gate itself is broken" for "review the
findings" (or vice versa).
"""

import json

import pytest

from repro.analysis import runall
from repro.cli import main

IR_LAYERS = runall.LAYERS[1:]


@pytest.fixture(scope="module")
def tiny_tree(tmp_path_factory):
    """A minimal analysis target: fast to analyze, zero findings."""
    root = tmp_path_factory.mktemp("tinytree")
    (root / "mod.py").write_text(
        "def helper(x):\n    return x + 1\n", encoding="utf-8"
    )
    return root


@pytest.fixture
def baseline(tmp_path, monkeypatch):
    """The scratch file every layer's baseline path resolves to."""
    path = tmp_path / "baseline.json"
    monkeypatch.setattr(runall, "baseline_path", lambda layer: path)
    return path


def _gate(tool, target):
    return main(["analyze", "--check", "--layers", tool, str(target)])


@pytest.mark.parametrize("tool", IR_LAYERS)
class TestExitCodeContract:
    def test_clean_gate_is_zero(self, tool, tiny_tree, baseline):
        baseline.write_text(
            json.dumps({"tool": tool, "findings": {}}), encoding="utf-8"
        )
        assert _gate(tool, tiny_tree) == 0

    def test_drift_is_one(self, tool, tiny_tree, baseline, capsys):
        # A stale reviewed entry (the finding no longer exists) is
        # drift: the baseline must be updated, the gate itself is fine.
        baseline.write_text(
            json.dumps({
                "tool": tool,
                "findings": {"ghost-finding:somewhere": "reviewed once"},
            }),
            encoding="utf-8",
        )
        assert _gate(tool, tiny_tree) == 1
        assert "STALE" in capsys.readouterr().out

    def test_malformed_baseline_is_two(self, tool, tiny_tree, baseline):
        # An empty justification is a blanket suppression: the loader
        # rejects it, and that is a broken gate (2), never drift (1).
        baseline.write_text(
            json.dumps({"tool": tool, "findings": {"some:finding": "  "}}),
            encoding="utf-8",
        )
        assert _gate(tool, tiny_tree) == 2

    def test_unreadable_target_is_two(self, tool, tmp_path):
        assert _gate(tool, tmp_path / "no-such-tree") == 2

    def test_syntax_error_is_two(self, tool, tmp_path, capsys):
        (tmp_path / "broken.py").write_text("def f(:\n", encoding="utf-8")
        assert _gate(tool, tmp_path) == 2
        assert "broken.py:1: SyntaxError:" in capsys.readouterr().err


def test_write_baseline_keeps_justifications(tmp_path, monkeypatch):
    (tmp_path / "mod.py").write_text(
        "def deliberately_leaky(mm, path):\n"
        "    der = pem_decode(path)\n"
        "    mm.write(0, der)\n",
        encoding="utf-8",
    )
    written = {layer: tmp_path / f"{layer}.json" for layer in IR_LAYERS}
    monkeypatch.setattr(runall, "baseline_path", written.__getitem__)
    kept = "tainted-flow:mod.deliberately_leaky:write:memory-write"
    written["keyflow"].write_text(
        json.dumps({"tool": "keyflow", "findings": {kept: "reviewed"}}),
        encoding="utf-8",
    )
    argv = ["analyze", "--layers", "keylint,keyflow,keycount", str(tmp_path)]
    assert main(argv + ["--write-baseline"]) == 0
    assert sorted(p.stem for p in written.values() if p.exists()) == [
        "keycount", "keyflow"
    ]
    payload = json.loads(written["keyflow"].read_text(encoding="utf-8"))
    assert payload == {"tool": "keyflow", "findings": {kept: "reviewed"}}
    assert main(argv + ["--check"]) == 0
