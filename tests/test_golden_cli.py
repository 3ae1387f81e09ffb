"""Golden lock for the simulation CLIs: demo, attack, ladder, taint,
chaos, soak, sweep, scan and timeline.

Each case runs one ``repro`` command in a fresh interpreter at a
small, fixed scale and compares its stdout byte for byte with
``tests/golden/<name>``, exactly as a user runs it: exit status,
stdout and the interpreter's start-up all count.  The sweep reports
carry a host wall-clock field, ``wall_clock_s``; that one line is
dropped before comparing (and before writing).  Every other byte is
deterministic, so any difference is a change in what the simulation
does.

Regenerate after an intended change and review the diff::

    PYTHONPATH=src python -m pytest tests/test_golden_cli.py --update-golden
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"

_WALL_CLOCK = re.compile(r'^  "wall_clock_s": [0-9.e+-]+,\n', re.MULTILINE)

#: The machine the demo, attack and ladder cases load.
_TINY = ["--memory-mb", "8", "--key-bits", "256", "--connections", "4",
         "--seed", "3"]

#: (golden file, expected exit status, argv)
CASES = [
    ("demo.txt", 0, ["demo", *_TINY]),
    ("attack_ext2.txt", 0, ["attack", "--exploit", "ext2", *_TINY]),
    ("attack_ntty.txt", 0, ["attack", "--exploit", "ntty", *_TINY]),
    ("attack_swap.txt", 0, ["attack", "--exploit", "swap", *_TINY]),
    # Every protection level on one openssh machine shape.
    ("ladder.txt", 0, ["ladder", *_TINY]),
    ("taint_openssh.txt", 0,
     ["taint", "--server", "openssh", "--seed", "3", "--memory-mb", "16"]),
    ("taint_apache.txt", 0,
     ["taint", "--server", "apache", "--seed", "3", "--memory-mb", "16"]),
    ("chaos.json", 0,
     ["chaos", "--level", "all", "--schedules", "3", "--seed", "5",
      "--out", "-"]),
    ("soak.json", 0,
     ["soak", "--level", "all", "--schedules", "2", "--generations", "2",
      "--seed", "5", "--out", "-"]),
    ("sweep_perf.json", 0,
     ["sweep", "--kind", "perf", "--scale", "quick", "--out", "-"]),
    # Exit 1: the 120-connection cells exhaust 8 MB and are recorded
    # as failed runs, which the report lists.
    ("sweep_ntty.json", 1,
     ["sweep", "--kind", "ntty", "--scale", "quick", "--key-bits", "512",
      "--memory-mb", "8", "--out", "-"]),
    # Every session's private operation runs in the key vault.
    ("sweep_ntty_hardware.json", 0,
     ["sweep", "--kind", "ntty", "--server", "apache", "--level", "hardware",
      "--scale", "quick", "--key-bits", "256", "--memory-mb", "8",
      "--out", "-"]),
    # 143 copies, several patterns per frame.
    ("scan_openssh.txt", 0,
     ["scan", "--server", "openssh", "--seed", "3", "--limit", "400"]),
    # The shared aligned key page: one frame, many owning PIDs.
    ("scan_apache_integrated.txt", 0,
     ["scan", "--server", "apache", "--level", "integrated", "--seed", "3",
      "--limit", "400"]),
    # 30 incremental scans over one run.
    ("timeline_openssh.txt", 0,
     ["timeline", "--server", "openssh", "--seed", "3",
      "--cycles-per-slot", "1", "--incremental"]),
]


@pytest.mark.parametrize(
    "name, status, argv", CASES, ids=[case[0] for case in CASES]
)
def test_cli_matches_the_golden_output(name, status, argv, request):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *argv], env=env, cwd=ROOT,
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    assert proc.returncode == status
    out = proc.stdout
    if argv[0] == "sweep":
        stripped = _WALL_CLOCK.sub("", out)
        assert stripped.count("\n") == out.count("\n") - 1
        out = stripped
    golden = GOLDEN / name
    if request.config.getoption("--update-golden"):
        golden.write_text(out, encoding="utf-8")
    expected = golden.read_text(encoding="utf-8")
    assert out == expected, f"repro {argv[0]} drifted"
