"""Golden lock: ``repro analyze`` over the pinned source snapshot.

``tests/golden/analyze.{txt,json,sarif}`` are the three report formats
of the whole static stack over ``e2ebench/repro-src.tar.gz``, a fixed
copy of the package sources.  The input never changes, so any byte of
difference is a change in what the analysis reports.  Regenerate with
the one-liner in ``docs/static-analysis.md`` and review the diff.
"""

import stat
from pathlib import Path

from e2ebench import snapshot
from repro.analysis.runall import run_all

GOLDEN = Path(__file__).resolve().parents[1] / "golden"


def test_analyze_matches_the_golden_outputs(tmp_path):
    root = snapshot.extract(tmp_path)
    for path in root.rglob("*.py"):
        path.chmod(stat.S_IRUSR | stat.S_IRGRP | stat.S_IROTH)
    result = run_all(paths=[root])
    for suffix, fmt in (("txt", "text"), ("json", "json"), ("sarif", "sarif")):
        golden = (GOLDEN / f"analyze.{suffix}").read_text(encoding="utf-8")
        assert result.render(fmt) == golden, f"analyze --format {fmt} drifted"
