"""Where KeyFlow's taint and KeyRecon's fragments follow different rules.

KeyFlow asks "may key bytes flow here", KeyRecon "which derived
fragments are resident here".  Each fixture below routes one value into
a ``seen_*`` function whose parameter records it: the function is in
KeyFlow's leak set when the value is tainted, and KeyRecon's inventory
lists the fragments it carries.  The fixtures pin every place the two
rule sets disagree, so neither layer can drift into the other's rules
on input the shipped tree does not exercise.
"""

from repro.analysis import keyflow, keyrecon
from repro.analysis.ir import dataflow
from repro.analysis.ir.project import Project
from repro.analysis.keyflow import KeyFlowConfig
from repro.analysis.keyflow.config import DEFAULT_SCRUBBERS
from repro.analysis.runall import run_all

SEEN = (
    "seen_by_index", "seen_by_key", "seen_taint_added",
    "seen_fragments_replaced", "seen_taint_kept", "seen_source",
    "seen_scrubbed", "seen_receiver", "seen_return", "seen_init",
    "seen_unresolved", "seen_plain", "seen_derived", "seen_projection",
)

PRELUDE = "".join(f"def {name}(value):\n    return value\n\n" for name in SEEN)


def analyze_both(tmp_path, body, flow_config=keyflow.DEFAULT_CONFIG):
    """(KeyFlow leak set, KeyRecon report) for ``PRELUDE + body``."""
    (tmp_path / "mod.py").write_text(PRELUDE + body, encoding="utf-8")
    flow = keyflow.analyze(paths=[tmp_path], config=flow_config)
    return set(flow.leak_set), keyrecon.analyze(paths=[tmp_path])


class TestSubscript:
    BODY = (
        "def by_index(table, path):\n"
        "    secret = pem_decode(path)\n"
        "    seen_by_index(table[secret])\n"
        "\n"
        "def by_key(rsa):\n"
        "    seen_by_key(rsa.bn['p'])\n"
    )

    def test_taint_flows_from_the_slice_but_fragments_do_not(self, tmp_path):
        leaks, recon = analyze_both(tmp_path, self.BODY)
        assert "mod.seen_by_index" in leaks
        assert "mod.seen_by_index" not in recon.inventory

    def test_a_constant_key_names_a_fragment_but_does_not_taint(self, tmp_path):
        leaks, recon = analyze_both(tmp_path, self.BODY)
        assert recon.inventory["mod.seen_by_key"] == ["p"]
        assert "mod.seen_by_key" not in leaks


class TestComprehensionTarget:
    BODY = (
        "def iterate_tainted(rsa, num):\n"
        "    item = rsa.bn['p']\n"
        "    [item for item in [num.to_bytes()]]\n"
        "    seen_taint_added(item)\n"
        "\n"
        "def iterate_fragments(rsa):\n"
        "    item = rsa.bn['p']\n"
        "    [item for item in [rsa.bn['q']]]\n"
        "    seen_fragments_replaced(item)\n"
        "\n"
        "def iterate_fragments_after_taint(rsa, num):\n"
        "    item = num.to_bytes()\n"
        "    [item for item in [rsa.bn['q']]]\n"
        "    seen_taint_kept(item)\n"
    )

    def test_a_tainted_iterable_keeps_the_target_fragments(self, tmp_path):
        leaks, recon = analyze_both(tmp_path, self.BODY)
        assert "mod.seen_taint_added" in leaks
        assert recon.inventory["mod.seen_taint_added"] == ["p"]

    def test_a_fragment_iterable_replaces_fragments_only(self, tmp_path):
        leaks, recon = analyze_both(tmp_path, self.BODY)
        assert recon.inventory["mod.seen_fragments_replaced"] == ["q"]
        assert "mod.seen_fragments_replaced" not in leaks
        assert recon.inventory["mod.seen_taint_kept"] == ["q"]
        assert "mod.seen_taint_kept" in leaks


class TestCall:
    BODY = (
        "class Box:\n"
        "    def __init__(self, value):\n"
        "        self.value = value\n"
        "\n"
        "class Holder:\n"
        "    def peek(self):\n"
        "        return 0\n"
        "\n"
        "def produce(path):\n"
        "    return pem_decode(path)\n"
        "\n"
        "def plain(value):\n"
        "    return 0\n"
        "\n"
        "def ensure_mont(value):\n"
        "    return 0\n"
        "\n"
        "def calls(key, num, path, bits):\n"
        "    token = num.to_bytes()\n"
        "    seen_receiver(token.peek())\n"
        "    seen_return(produce(path))\n"
        "    seen_init(Box(token))\n"
        "    seen_unresolved(mystery(token))\n"
        "    seen_plain(plain(token))\n"
        "    seen_derived(ensure_mont(key.p))\n"
        "    seen_projection(generate_rsa_key(bits).p_bytes())\n"
        "\n"
        "def concentrate_taint(key, num):\n"
        "    rsa_memory_align(key.p, num.to_bytes())\n"
        "\n"
        "def concentrate_parts(key):\n"
        "    rsa_memory_align(key.p, key.q)\n"
    )

    def test_taint_follows_keyflow(self, tmp_path):
        leaks, _ = analyze_both(tmp_path, self.BODY)
        for tainted in ("seen_receiver", "seen_return", "seen_init",
                        "seen_unresolved", "seen_projection"):
            assert f"mod.{tainted}" in leaks, tainted
        # a resolved callee with a clean return drops tainted arguments
        assert "mod.seen_plain" not in leaks

    def test_a_matched_derivation_edge_does_not_pass_taint_on(self, tmp_path):
        leaks, recon = analyze_both(tmp_path, self.BODY)
        assert recon.inventory["mod.seen_derived"] == ["mont_p", "p"]
        assert "mod.seen_derived" not in leaks

    def test_a_projection_returns_exactly_its_adds(self, tmp_path):
        _, recon = analyze_both(tmp_path, self.BODY)
        assert recon.inventory["mod.seen_projection"] == ["p"]

    def test_taint_is_not_a_concentrated_fragment(self, tmp_path):
        _, recon = analyze_both(tmp_path, self.BODY)
        concentrated = {
            f.function for f in recon.findings
            if f.rule == "fragment-concentration"
        }
        assert concentrated == {"mod.concentrate_parts"}

    def test_a_source_is_tainted_before_scrubbers_are_checked(self, tmp_path):
        body = (
            "def scrub_order(path, num):\n"
            "    seen_source(pem_decode(path))\n"
            "    seen_scrubbed(zeroize(num.to_bytes()))\n"
        )
        config = KeyFlowConfig(scrubbers=DEFAULT_SCRUBBERS | {"pem_decode"})
        leaks, _ = analyze_both(tmp_path, body, flow_config=config)
        assert "mod.seen_source" in leaks
        assert "mod.seen_scrubbed" not in leaks


class TestTaintWithoutFragments:
    def test_a_function_can_leak_without_holding_a_fragment(self, tmp_path):
        body = "def encode(num):\n    return num.to_bytes()\n"
        leaks, recon = analyze_both(tmp_path, body)
        assert "mod.encode" in leaks
        assert "mod.encode" not in recon.inventory
        assert "mod.encode" not in recon.reconstructible_set


class TestOneFixpointPerProject:
    def count_runs(self, monkeypatch):
        runs = []
        original = dataflow.KeyMaterialAnalysis.run

        def counted(analysis, *args, **kwargs):
            runs.append(analysis)
            return original(analysis, *args, **kwargs)

        monkeypatch.setattr(dataflow.KeyMaterialAnalysis, "run", counted)
        return runs

    def test_run_all_computes_the_fixpoint_once(self, tmp_path, monkeypatch):
        (tmp_path / "mod.py").write_text(PRELUDE + TestCall.BODY, encoding="utf-8")
        runs = self.count_runs(monkeypatch)
        result = run_all(paths=[tmp_path])
        assert {"keyflow", "keyrecon"} <= set(result.reports)
        assert len(runs) == 1

    def test_initial_order_and_other_configs_recompute(self, tmp_path, monkeypatch):
        (tmp_path / "mod.py").write_text(PRELUDE + TestCall.BODY, encoding="utf-8")
        project = Project.load([tmp_path])
        runs = self.count_runs(monkeypatch)
        keyflow.analyze(project=project)
        keyrecon.analyze(project=project)
        assert len(runs) == 1
        keyflow.analyze(
            project=project, initial_order=project.sorted_names()[::-1]
        )
        assert len(runs) == 2
        keyflow.analyze(
            project=project, config=keyflow.DEFAULT_CONFIG.without_sinks()
        )
        assert len(runs) == 3
        keyrecon.analyze(
            project=project,
            config=keyrecon.DEFAULT_CONFIG.without_fragment_attrs(),
        )
        assert len(runs) == 4
