"""Byte-identical results under any discovery or worklist order.

The interprocedural facts are monotone, so chaotic iteration reaches
the same least fixpoint no matter how the worklist is seeded; findings
come from one sorted final pass.  These tests shuffle both knobs with
hypothesis and require byte-for-byte identical reports — the repo's
byte-identical-reports convention applied to the analyzer itself.
"""

import json
import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.keyflow import analyze
from repro.analysis.ir.project import Project, discover_files

FIXTURE_SOURCES = {
    "alpha.py": (
        "def produce(path):\n"
        "    return pem_decode(path)\n"
        "\n"
        "def relay(mm, path):\n"
        "    mm.write(0, produce(path))\n"
    ),
    "beta.py": (
        "class Holder:\n"
        "    def __init__(self, path):\n"
        "        self.payload = pem_decode(path)\n"
        "\n"
        "    def spill(self, fh):\n"
        "        fh.write_text(self.payload)\n"
    ),
    "gamma.py": (
        "def scrubbed(process, data):\n"
        "    bn = bn_bin2bn(process, data)\n"
        "    try:\n"
        "        use(bn)\n"
        "    finally:\n"
        "        bn_clear_free(bn)\n"
    ),
    "delta.py": (
        "def sloppy(process, data):\n"
        "    bn = bn_bin2bn(process, data)\n"
        "    use(bn)\n"
    ),
}


def make_project(tmp_path):
    for name, source in FIXTURE_SOURCES.items():
        (tmp_path / name).write_text(source, encoding="utf-8")


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
        names = list(Project.load([root]).functions)
        rng.shuffle(names)
        shuffled = rendered(
            analyze(paths=[root], files=pairs, initial_order=names)
        )
        assert shuffled == baseline

    def test_two_full_dogfood_runs_are_byte_identical(self):
        first = rendered(analyze())
        second = rendered(analyze())
        assert first == second

    def test_reversed_discovery_on_real_tree(self):
        from repro.analysis.ir.project import REPRO_ROOT

        pairs = list(reversed(discover_files([REPRO_ROOT])))
        assert rendered(analyze(files=pairs)) == rendered(analyze())
