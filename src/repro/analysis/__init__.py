"""Experiment orchestration: the drivers behind every paper figure.

* :mod:`repro.analysis.timeline` — the 29-step simulation schedule of
  §3.2 / §5.3 / §6.3 (Figures 5-6, 9-16, 21-28);
* :mod:`repro.analysis.experiments` — attack sweeps (Figures 1-4, 7,
  17-18);
* :mod:`repro.analysis.perfbench` — the scp-stress and Siege analogs
  (Figures 8, 19-20);
* :mod:`repro.analysis.report` — plain-text rendering of the series
  the paper plots.
"""

from repro.analysis.experiments import (
    Ext2SweepResult,
    NttySweepResult,
    ext2_attack_sweep,
    mitigation_comparison,
    ntty_attack_sweep,
)
from repro.analysis.perfbench import PerfMetrics, run_scp_stress, run_siege
from repro.analysis.timeline import TimelineResult, TimelineStep, run_timeline

__all__ = [
    "Ext2SweepResult",
    "NttySweepResult",
    "PerfMetrics",
    "TimelineResult",
    "TimelineStep",
    "ext2_attack_sweep",
    "mitigation_comparison",
    "ntty_attack_sweep",
    "run_scp_stress",
    "run_siege",
    "run_timeline",
]
