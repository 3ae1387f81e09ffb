"""The acceptance regression: KeyState flags an ordering bug that
KeyFlow, by design, cannot see.

A key that serves a private operation before ``rsa_memory_align()``
never moves secret *bytes* anywhere new — every taint fact KeyFlow
tracks is identical to the correctly ordered program.  Only the
typestate layer can distinguish the two.  This test seeds exactly that
bug and requires KeyState to flag it while KeyFlow stays silent on the
same function, proving the two layers are not redundant.
"""

from repro.analysis import keyflow, keystate

SEEDED_ORDERING_BUG = (
    "def load_and_serve(process, msg):\n"
    "    rsa = RsaStruct(process)\n"
    "    rsa_private_operation(rsa, msg)\n"
    "    rsa_memory_align(rsa)\n"  # right call, wrong time
    "    rsa.rsa_free()\n"
)


class TestLayerSeparation:
    def test_keystate_flags_the_seeded_ordering_bug(self, tmp_path):
        (tmp_path / "seeded.py").write_text(SEEDED_ORDERING_BUG, encoding="utf-8")
        report = keystate.analyze(paths=[tmp_path])
        assert (
            "serve-before-align:seeded.load_and_serve:new:RsaStruct:serve"
            in [f.baseline_id for f in report.findings]
        )

    def test_keyflow_does_not_flag_the_same_function(self, tmp_path):
        (tmp_path / "seeded.py").write_text(SEEDED_ORDERING_BUG, encoding="utf-8")
        report = keyflow.analyze(paths=[tmp_path])
        assert [
            f for f in report.findings if "load_and_serve" in f.function
        ] == []

    def test_real_tree_serve_before_align_is_keystate_only(self, shipped_project):
        # the shipped tree's unaligned-serve sites (NONE-level sshd and
        # httpd handshakes) appear in KeyState's findings and in no
        # KeyFlow finding
        ks_functions = {
            f.function
            for f in keystate.analyze(project=shipped_project).findings
            if f.rule == "serve-before-align"
        }
        assert "repro.apps.sshd.OpenSSHServer._key_exchange" in ks_functions
        kf_functions = {
            f.function for f in keyflow.analyze(project=shipped_project).findings
        }
        assert not (ks_functions & kf_functions)
