"""Byte-identical KeyState reports under any discovery or seed order.

Same contract as KeyFlow's determinism suite: the interprocedural
rounds iterate the *sorted* function list and all summary facts are
monotone, so file-discovery order and any caller-supplied seed order
cannot change the fixpoint — and findings come from one sorted final
pass.  Shuffle both knobs with hypothesis and require byte-for-byte
identical text, JSON, and SARIF."""

import json
import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.ir.project import discover_files
from repro.analysis.keystate import analyze

FIXTURE_SOURCES = {
    "alpha.py": (
        "def serve_it(rsa, msg):\n"
        "    rsa_private_operation(rsa, msg)\n"
        "\n"
        "def entry(process, msg):\n"
        "    rsa = RsaStruct(process)\n"
        "    serve_it(rsa, msg)\n"
    ),
    "beta.py": (
        "class Holder:\n"
        "    def __init__(self, process):\n"
        "        self.rsa = RsaStruct(process)\n"
        "\n"
        "    def drop(self):\n"
        "        self.rsa.rsa_free()\n"
        "\n"
        "    def drop_again(self):\n"
        "        self.rsa.rsa_free()\n"
    ),
    "gamma.py": (
        "def scrubbed(process, data, use):\n"
        "    bn = bn_bin2bn(process, data)\n"
        "    try:\n"
        "        use(bn)\n"
        "    finally:\n"
        "        bn_clear_free(bn)\n"
    ),
    "delta.py": (
        "def sloppy_file(sys, path):\n"
        "    fd = sys.open(path, O_RDONLY)\n"
        "    return sys.read_all(fd)\n"
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
    def test_file_and_seed_order_do_not_matter(self, tmp_path, seed):
        root = tmp_path / f"proj{seed}"
        root.mkdir()
        make_project(root)
        baseline = rendered(analyze(paths=[root]))

        rng = random.Random(seed)
        pairs = discover_files([root])
        rng.shuffle(pairs)
        shuffled = rendered(analyze(paths=[root], files=pairs))
        assert shuffled == baseline

    def test_fixture_findings_are_nonempty(self, tmp_path):
        # guard against the shuffles passing vacuously on empty reports
        make_project(tmp_path)
        report = analyze(paths=[tmp_path])
        rules = {f.rule for f in report.findings}
        assert "serve-before-align" in rules
        assert "keyfile-no-nocache" in rules

    def test_two_full_dogfood_runs_are_byte_identical(self):
        first = rendered(analyze())
        second = rendered(analyze())
        assert first == second

    def test_reversed_discovery_on_real_tree(self):
        from repro.analysis.ir.project import REPRO_ROOT

        pairs = list(reversed(discover_files([REPRO_ROOT])))
        assert rendered(analyze(files=pairs)) == rendered(analyze())
