"""The reviewed-baseline file contract, written once for every IR layer.

Each layer's ``test_baseline.py`` subclasses :class:`BaselineFileContract`
as ``TestBaselineFile`` and sets :attr:`layer`.
"""

import json

import pytest

from repro.analysis.baseline import load_baseline, write_baseline
from repro.analysis.runall import baseline_path


class _Report:
    """The one thing a baseline needs from a report: its finding ids."""

    def __init__(self, ids):
        self.ids = list(ids)

    def finding_ids(self):
        return self.ids


class BaselineFileContract:
    layer = ""

    def test_empty_justification_is_rejected(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(
            json.dumps({"tool": self.layer, "findings": {"rule:mod.f:x": ""}}),
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match="blanket suppression"):
            load_baseline(path)

    def test_write_preserves_existing_justifications(self, tmp_path):
        """Rewriting the shipped baseline from its own ids reproduces its
        content; a new id gets the TODO marker review replaces."""
        shipped = baseline_path(self.layer)
        kept = load_baseline(shipped)
        path = tmp_path / "baseline.json"
        write_baseline(_Report(kept), path, existing=kept, tool=self.layer)
        assert json.loads(path.read_text(encoding="utf-8")) == json.loads(
            shipped.read_text(encoding="utf-8")
        )
        ids = [*kept, "rule:mod.new:x"]
        write_baseline(_Report(ids), path, existing=kept, tool=self.layer)
        rewritten = load_baseline(path)
        assert rewritten["rule:mod.new:x"].startswith("TODO")
        assert {finding_id: rewritten[finding_id] for finding_id in kept} == kept

    def test_missing_baseline_is_empty(self, tmp_path):
        assert load_baseline(tmp_path / "nope.json") == {}
