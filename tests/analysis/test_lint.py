"""keylint: every rule fires on its fixture, the escape hatch works,
and the real source tree is clean."""

from pathlib import Path

import pytest

from repro.analysis.lint import (
    RULE_NAMES,
    LintViolation,
    lint_file,
    lint_paths,
    lint_source,
    render_report,
)

FIXTURES = Path(__file__).parent / "lint_fixtures"
SRC_REPRO = Path(__file__).parent.parent.parent / "src" / "repro"


def rules_in(violations):
    return {violation.rule for violation in violations}


class TestRulesFire:
    def test_bn_free_flags_secret_arguments_only(self):
        violations = lint_file(FIXTURES / "bad_bn_free.py")
        assert rules_in(violations) == {"bn-free"}
        assert len(violations) == 3  # d, p, priv_bn — not n, not e
        assert all("bn_clear_free" in v.message for v in violations)

    def test_raw_secret_bytes_flags_retained_attributes(self):
        violations = lint_file(FIXTURES / "bad_raw_bytes.py")
        assert rules_in(violations) == {"raw-secret-bytes"}
        flagged_attrs = {v.message.split()[0] for v in violations}
        assert flagged_attrs == {"self.exponent_copy", "self.pem", "self.parts"}

    def test_snapshot_scope_flags_raw_ram_calls(self):
        violations = lint_file(FIXTURES / "bad_snapshot.py")
        assert rules_in(violations) == {"snapshot-scope"}
        assert len(violations) == 2  # snapshot() + raw_view(), not the attr

    def test_memalign_without_mlock_flagged(self):
        violations = lint_file(FIXTURES / "bad_memalign.py")
        assert rules_in(violations) == {"memalign-mlock"}
        assert len(violations) == 1
        assert "alloc_key_page_swappable" in violations[0].message

    def test_swallowed_error_flags_silent_handlers(self):
        violations = lint_file(FIXTURES / "bad_swallow.py")
        assert rules_in(violations) == {"swallowed-error"}
        assert len(violations) == 3  # bare, pass-only, constant-only
        # Recording handlers and non-Repro exception types stay clean.
        assert all(v.line < 19 for v in violations)

    def test_memalign_rule_scans_async_def_bodies(self):
        violations = lint_file(FIXTURES / "bad_async_memalign.py")
        assert rules_in(violations) == {"memalign-mlock"}
        assert len(violations) == 1
        assert "alloc_key_page_async" in violations[0].message

    def test_memalign_rule_scans_lambda_bodies(self):
        violations = lint_file(FIXTURES / "bad_lambda_memalign.py")
        assert rules_in(violations) == {"memalign-mlock"}
        # the module-level lambda AND the lambda nested in a function
        assert len(violations) == 2
        assert all("<lambda>" in v.message for v in violations)

    def test_mont_clear_flags_non_clearing_drops(self):
        violations = lint_file(FIXTURES / "bad_mont_clear.py")
        assert rules_in(violations) == {"mont-clear"}
        assert len(violations) == 3  # bare, clear=False, clear=<variable>
        assert all("clear=True" in v.message for v in violations)

    def test_mont_clear_accepts_clearing_drop(self):
        assert lint_file(FIXTURES / "good_mont_clear.py") == []

    def test_secret_in_log_flags_logged_key_material(self):
        violations = lint_file(FIXTURES / "bad_secret_log.py")
        assert rules_in(violations) == {"secret-in-log"}
        # producer via print, %-args, f-string, unambiguous CRT part,
        # and a producer buried in a keyword argument
        assert len(violations) == 5
        assert all("log" in v.message for v in violations)

    def test_secret_in_log_accepts_metadata_logging(self):
        assert lint_file(FIXTURES / "good_secret_log.py") == []

    def test_secret_in_log_needs_key_looking_base_for_short_parts(self):
        # point.p is a coordinate, key.p is a CRT prime
        clean = "def f(logger, point):\n    logger.info('%s', point.p)\n"
        dirty = "def f(logger, key):\n    logger.info('%s', key.p)\n"
        assert lint_source(clean, "f.py") == []
        assert rules_in(lint_source(dirty, "f.py")) == {"secret-in-log"}

    def test_wall_clock_in_sim_flags_host_clock_reads(self):
        violations = lint_file(
            FIXTURES / "kernel" / "bad_wall_clock.py", root=FIXTURES
        )
        assert rules_in(violations) == {"wall-clock-in-sim"}
        # nap() alias, time.monotonic(), time.time(), datetime.now() —
        # the SimClock calls stay clean
        assert len(violations) == 4
        assert all("SimClock" in v.message for v in violations)

    def test_wall_clock_matches_whole_module_aliases(self):
        # A base whose name merely contains ``time`` is not the module.
        source = (
            "import time\n"
            "def f(sim_time, time_source):\n"
            "    sim_time.sleep(5)\n"
            "    return time_source.time()\n"
        )
        assert lint_source(source, "kernel/clock.py") == []

    def test_wall_clock_flags_every_alias_form(self):
        source = (
            "import time\n"
            "import datetime as dt\n"
            "from datetime import datetime\n"
            "from time import sleep as nap\n"
            "def f():\n"
            "    time.monotonic()\n"
            "    nap(1)\n"
            "    datetime.now()\n"
            "    dt.datetime.now()\n"
        )
        violations = lint_source(source, "kernel/clock.py")
        assert rules_in(violations) == {"wall-clock-in-sim"}
        assert [v.line for v in violations] == [6, 7, 8, 9]

    def test_wall_clock_rule_is_path_scoped(self):
        source = (FIXTURES / "kernel" / "bad_wall_clock.py").read_text()
        assert lint_source(source, "analysis/bench.py") == []

    def test_derived_scrub_flags_forgotten_fragments(self):
        violations = lint_file(FIXTURES / "bad_derived_scrub.py")
        assert rules_in(violations) == {"derived-secret-scrub"}
        # two bn_clear_free calls next to an unscrubbed dmp1, plus a
        # zeroize in a scope whose drop_mont() never clears
        assert len(violations) == 3
        assert all("derived key state" in v.message for v in violations)

    def test_derived_scrub_accepts_full_teardown(self):
        assert lint_file(FIXTURES / "good_derived_scrub.py") == []

    def test_long_lived_flags_blocks_with_live_mints(self):
        violations = lint_file(FIXTURES / "bad_long_lived.py")
        assert rules_in(violations) == {"long-lived-secret"}
        # d2i→transfer, open_connection→wait, pem_decode→poll
        assert len(violations) == 3
        assert all("exposure window" in v.message for v in violations)

    def test_long_lived_accepts_scrub_or_handoff_first(self):
        assert lint_file(FIXTURES / "good_long_lived.py") == []

    def test_long_lived_is_per_scope(self):
        # Mint and block in different functions: neither scope holds.
        source = (
            "def load(p):\n"
            "    return d2i_privatekey(p, '/k')\n"
            "def serve(c):\n"
            "    c.transfer(1024)\n"
        )
        assert lint_source(source, "f.py") == []

    def test_derived_scrub_scopes_are_per_function(self):
        # The primary scrub and the derived touch live in *different*
        # functions: neither scope owes the other a scrub.
        source = (
            "def scrub(rsa):\n"
            "    bn_clear_free(rsa.d_bn)\n"
            "def elsewhere(rsa):\n"
            "    return rsa.dmp1\n"
        )
        assert lint_source(source, "f.py") == []

    def test_every_rule_has_a_firing_fixture(self):
        violations = lint_paths([FIXTURES])
        assert rules_in(violations) == set(RULE_NAMES)


class TestEscapeHatch:
    def test_ignored_fixture_is_clean(self):
        assert lint_file(FIXTURES / "ignored_ok.py") == []

    def test_ignore_is_rule_specific(self):
        source = (
            "def f(bn_free, rsa):\n"
            "    bn_free(rsa.d)  # keylint: ignore[snapshot-scope]\n"
        )
        violations = lint_source(source, "f.py")
        assert rules_in(violations) == {"bn-free"}

    def test_ignore_star_silences_everything(self):
        source = (
            "def f(bn_free, rsa):\n"
            "    bn_free(rsa.d)  # keylint: ignore[*]\n"
        )
        assert lint_source(source, "f.py") == []

    def test_ignore_only_covers_its_own_line(self):
        source = (
            "def f(bn_free, rsa):\n"
            "    x = 1  # keylint: ignore[bn-free]\n"
            "    bn_free(rsa.d)\n"
        )
        assert len(lint_source(source, "f.py")) == 1


class TestPathExemptions:
    SNAPSHOT_SRC = "def f(mem):\n    return mem.snapshot()\n"
    RETAIN_SRC = "class C:\n    def __init__(self, key):\n        self.raw = key.d_bytes()\n"

    def test_attacks_may_snapshot(self):
        assert lint_source(self.SNAPSHOT_SRC, "attacks/scanner.py") == []
        assert lint_source(self.SNAPSHOT_SRC, "sanitizer/keysan.py") == []

    def test_everyone_else_may_not(self):
        assert rules_in(lint_source(self.SNAPSHOT_SRC, "kernel/vm.py")) == {
            "snapshot-scope"
        }

    def test_harness_may_hold_patterns(self):
        assert lint_source(self.RETAIN_SRC, "core/simulation.py") == []
        assert lint_source(self.RETAIN_SRC, "attacks/keysearch.py") == []

    def test_ssl_layer_may_not_hold_raw_bytes(self):
        assert rules_in(lint_source(self.RETAIN_SRC, "ssl/rsa_st.py")) == {
            "raw-secret-bytes"
        }

    WALL_CLOCK_SRC = "import time\ndef f():\n    return time.monotonic()\n"

    def test_simulated_layers_may_not_read_wall_clock(self):
        for rel in (
            "faults/supervisor.py",
            "kernel/clock.py",
            "apps/sshd.py",
            "core/simulation.py",
        ):
            assert rules_in(lint_source(self.WALL_CLOCK_SRC, rel)) == {
                "wall-clock-in-sim"
            }, rel

    def test_harness_may_time_itself(self):
        assert lint_source(self.WALL_CLOCK_SRC, "analysis/parallel.py") == []
        assert lint_source(self.WALL_CLOCK_SRC, "cli.py") == []


class TestCleanTree:
    def test_src_repro_has_zero_violations(self):
        violations = lint_paths([SRC_REPRO])
        assert violations == [], render_report(violations)

    def test_render_report_mentions_rule_counts(self):
        violations = lint_paths([FIXTURES])
        text = render_report(violations)
        for rule in RULE_NAMES:
            assert rule in text
        assert f"{len(violations)} violations" in text

    def test_clean_report_text(self):
        assert render_report([]) == "keylint: no violations"


class TestCliEntryPoints:
    def test_module_cli_clean_tree(self, capsys):
        from repro.cli import main

        assert main(["lint", str(SRC_REPRO)]) == 0
        assert "no violations" in capsys.readouterr().out

    def test_module_cli_fixture_tree(self, capsys):
        from repro.cli import main

        assert main(["lint", str(FIXTURES)]) == 1
        out = capsys.readouterr().out
        assert "bn-free" in out and "memalign-mlock" in out

    def test_violation_render_is_clickable(self):
        violation = LintViolation("a/b.py", 3, 4, "bn-free", "boom")
        assert violation.render() == "a/b.py:3:4: [bn-free] boom"
