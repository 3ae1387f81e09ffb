"""Byte-identical bounds under any discovery or worklist order.

The Count domain is a finite join-semilattice and the context
propagation is a round-based Kleene iteration with sorted
normalisation, so the fixpoint — and therefore every rendered report —
is independent of file discovery order and of any worklist seeding.
These tests shuffle both knobs with hypothesis and require
byte-for-byte identical output, the repo's byte-identical-reports
convention applied to the analyzer itself.
"""

import json
import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.ir.project import Project, discover_files
from repro.analysis.keycount import analyze

FIXTURE_SOURCES = {
    "alpha.py": (
        "def decode(process, blob):\n"
        "    return bn_bin2bn(process, blob)\n"
        "\n"
        "def serve(process, connections, blob):\n"
        "    for conn in connections:\n"
        "        decode(process, blob)\n"
    ),
    "beta.py": (
        "def load(process, path):\n"
        "    pem = bio_read_file(process, path)\n"
        "    return pem\n"
    ),
    "gamma.py": (
        "def teardown(heap, priv_der):\n"
        "    heap.free(priv_der)\n"
    ),
    "delta.py": (
        "def align(heap, size):\n"
        "    return memalign(heap, size)\n"
    ),
}


def make_project(root):
    for name, source in FIXTURE_SOURCES.items():
        (root / name).write_text(source, encoding="utf-8")


def rendered(report):
    return (
        json.dumps(report.to_json_dict(), sort_keys=True)
        + report.render_text()
        + json.dumps(report.to_sarif(), sort_keys=True)
    )


class TestShuffles:
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_file_and_worklist_order_do_not_matter(self, tmp_path, seed):
        root = tmp_path / f"proj{seed}"
        root.mkdir()
        make_project(root)
        baseline = rendered(analyze(paths=[root]))

        rng = random.Random(seed)
        pairs = discover_files([root])
        rng.shuffle(pairs)
        shuffled = rendered(analyze(paths=[root], files=pairs))
        assert shuffled == baseline

    def test_two_full_dogfood_runs_are_byte_identical(self):
        first = rendered(analyze())
        second = rendered(analyze())
        assert first == second

    def test_reversed_discovery_on_real_tree(self):
        from repro.analysis.ir.project import REPRO_ROOT

        pairs = list(reversed(discover_files([REPRO_ROOT])))
        assert rendered(analyze(files=pairs)) == rendered(analyze())

    def test_shared_project_build_matches_fresh_parse(self):
        from repro.analysis.ir.project import REPRO_ROOT

        project = Project.load([REPRO_ROOT])
        assert rendered(analyze(project=project)) == rendered(analyze())
