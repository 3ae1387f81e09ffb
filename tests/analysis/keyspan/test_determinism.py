"""Byte-identical reports regardless of run or seeding order."""

import json
import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.ir.project import Project, discover_files
from repro.analysis.keyspan import analyze

FIXTURE_SOURCES = {
    "alpha.py": (
        "def load(process, path):\n"
        "    pem = bio_read_file(process, path)\n"
        "    der = pem_decode(pem)\n"
        "    free(pem, clear=True)\n"
        "    return der\n"
    ),
    "beta.py": (
        "def decode(process, blob):\n"
        "    part = bn_bin2bn(process, blob)\n"
        "    bn_clear_free(part)\n"
    ),
    "gamma.py": (
        "def align(heap, size):\n"
        "    page = memalign(heap, size)\n"
        "    return page\n"
    ),
}


def make_tree(root):
    for name, source in FIXTURE_SOURCES.items():
        (root / name).write_text(source, encoding="utf-8")


def rendered(report):
    return (
        json.dumps(report.to_json_dict(), sort_keys=True)
        + report.render_text()
        + json.dumps(report.to_sarif(), sort_keys=True)
    )


class TestDeterminism:
    def test_repeated_runs_are_byte_identical(self, tmp_path):
        make_tree(tmp_path)
        assert rendered(analyze(paths=[tmp_path])) == rendered(
            analyze(paths=[tmp_path])
        )

    @settings(
        max_examples=10, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(seed=st.integers(min_value=0, max_value=2**32))
    def test_shuffled_seeding_order_is_byte_identical(self, tmp_path, seed):
        tree = tmp_path / f"t{seed % 97}"
        if not tree.exists():
            tree.mkdir()
            make_tree(tree)
        pairs = discover_files([tree])
        random.Random(seed).shuffle(pairs)
        project = Project.load([tree], files=pairs)
        report = analyze(files=pairs, project=project)
        baseline = analyze(paths=[tree])
        assert rendered(report) == rendered(baseline)


class TestFullTree:
    def test_real_tree_runs_are_byte_identical(self):
        assert rendered(analyze()) == rendered(analyze())
