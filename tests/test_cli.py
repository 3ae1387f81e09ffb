"""CLI tests."""

import json

import pytest

from repro.cli import build_parser, main

FAST = ["--key-bits", "256", "--memory-mb", "8", "--connections", "4"]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_level(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scan", "--level", "quantum"])

    def test_all_levels_accepted(self):
        parser = build_parser()
        for level in ("none", "application", "library", "kernel",
                      "integrated", "hardware"):
            args = parser.parse_args(["scan", "--level", level])
            assert args.level == level


class TestCommands:
    def test_scan(self, capsys):
        assert main(["scan", "--level", "none", "--limit", "3"] + FAST) == 0
        out = capsys.readouterr().out
        assert "key copies" in out
        assert "by region" in out

    def test_scan_protected_finds_three(self, capsys):
        main(["scan", "--level", "integrated"] + FAST)
        out = capsys.readouterr().out
        assert out.startswith("3 key copies")

    def test_attack_ext2_baseline_succeeds(self, capsys):
        code = main(
            ["attack", "--exploit", "ext2", "--dirs", "600", "--level", "none"]
            + FAST
        )
        assert code == 0
        assert "ATTACK SUCCEEDED" in capsys.readouterr().out

    def test_attack_ext2_protected_fails(self, capsys):
        code = main(
            ["attack", "--exploit", "ext2", "--dirs", "600",
             "--level", "integrated"] + FAST
        )
        assert code == 1
        assert "attack failed" in capsys.readouterr().out

    def test_attack_ntty(self, capsys):
        code = main(["attack", "--exploit", "ntty", "--level", "none"] + FAST)
        assert code in (0, 1)
        assert "dumped" in capsys.readouterr().out

    def test_attack_swap_mlocked_fails(self, capsys):
        code = main(["attack", "--exploit", "swap", "--level", "library"] + FAST)
        assert code == 1

    def test_timeline(self, capsys):
        code = main(
            ["timeline", "--level", "integrated", "--cycles-per-slot", "1"]
            + FAST
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Timeline: openssh" in out
        assert "t=29" in out

    def test_demo(self, capsys):
        assert main(["demo"] + FAST) == 0
        out = capsys.readouterr().out
        assert "[openssh @ none]" in out
        assert "[openssh @ integrated]" in out

    def test_ladder(self, capsys):
        assert main(["ladder"] + FAST) == 0
        out = capsys.readouterr().out
        for level in ("none", "application", "library", "kernel",
                      "integrated", "hardware"):
            assert level in out

    def test_taint_unmitigated(self, capsys):
        assert main(["taint", "--level", "none"] + FAST) == 0
        out = capsys.readouterr().out
        assert "KeySan taint report" in out
        assert "freed-tainted-frame" in out
        assert "oracle and scanner are CONSISTENT" in out

    def test_taint_integrated(self, capsys):
        assert main(["taint", "--level", "integrated"] + FAST) == 0
        out = capsys.readouterr().out
        assert "oracle and scanner are CONSISTENT" in out

    def test_lint_clean_tree(self, capsys):
        import repro

        package_dir = repro.__file__.rsplit("/", 1)[0]
        assert main(["lint", package_dir]) == 0
        assert "no violations" in capsys.readouterr().out

    def test_lint_default_target_is_package(self, capsys):
        assert main(["lint"]) == 0
        assert "no violations" in capsys.readouterr().out

    def test_sweep_attacker_axis_is_ntty_ext2_only(self, capsys):
        assert main(
            ["sweep", "--kind", "perf", "--attacker", "predict", "--out", "-"]
        ) == 2
        assert "--attacker applies" in capsys.readouterr().err

    def test_lint_syntax_error_is_bad_input(self, tmp_path, capsys):
        (tmp_path / "broken.py").write_text("def f(:\n", encoding="utf-8")
        assert main(["lint", str(tmp_path)]) == 2
        assert "broken.py:1: SyntaxError:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["soak", "--schedules", "0"], "schedules must be positive"),
        (["soak", "--generations", "40"], "KeySan tags"),
        (["chaos", "--schedules", "0"], "schedules must be positive"),
        (["sweep", "--retries", "-1", "--out", "-"],
         "--retries must be non-negative"),
    ], ids=["soak-schedules", "soak-generations", "chaos-schedules",
            "sweep-retries"])
    def test_bad_counts_are_bad_input(self, argv, message, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and message in lines[0]

    def test_campaign_report_defaults_under_benchmarks_results(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        assert main(["chaos", "--schedules", "1"]) == 0
        path = tmp_path / "benchmarks" / "results" / "chaos_openssh_integrated.json"
        assert json.loads(path.read_text())["campaign"] == "chaos-v1"
        assert "integrated invariant HOLDS" in capsys.readouterr().out


def test_taint_twice_in_one_process_prints_the_same_bytes(capsys):
    """File ids are numbered per kernel, so a second machine in the
    same process names the PEM's page-cache page as the first did."""
    argv = ["taint", "--server", "apache", "--seed", "3", "--memory-mb", "16"]
    outputs = []
    for _ in range(2):
        assert main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert "file page (1, 0)" in outputs[0]
    assert outputs[0] == outputs[1]
