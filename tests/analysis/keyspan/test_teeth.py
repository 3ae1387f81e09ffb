"""Ablation teeth: the ladder theorem depends on the modeled scrubs.

A containment theorem proven by a trivially-loose analysis proves
nothing.  Each test removes one modeled mitigation edge and watches
the theorem *fail* — so the green ladder in test_report.py is evidence
the analysis tracks the scrub structure, not an artifact of generous
bounds.
"""

import pytest

from repro.analysis.keyspan import DEFAULT_CONFIG, analyze


@pytest.fixture(scope="module")
def baseline_report(shipped_project):
    return analyze(project=shipped_project)


class TestScrubAblation:
    def test_without_clearing_free_heap_windows_diverge(self, baseline_report):
        # Forget that free() can clear: the pem/der staging buffers are
        # never scrubbed anywhere, and the ladder theorem collapses.
        ablated = analyze(config=DEFAULT_CONFIG.without_scrub("free"))
        assert baseline_report.window("INTEGRATED", "pem-buffer").evaluate(1) == 2320
        assert ablated.window("INTEGRATED", "pem-buffer").top
        assert ablated.window("INTEGRATED", "der-buffer").top
        assert not ablated.integrated_is_constant()
        assert not ablated.ladder_is_strictly_narrowing(8)


class TestMitigationAblation:
    def test_without_lib_align_crt_parts_stay_unbounded(self, baseline_report):
        # Forget the in-library d2i alignment hook: the CRT parts that
        # escape into the RsaStruct are bounded by nothing.
        ablated = analyze(config=DEFAULT_CONFIG.without_mitigation("lib_align"))
        assert baseline_report.window("LIBRARY", "crt-part").evaluate(1) == 4242
        assert ablated.window("LIBRARY", "crt-part").top
        assert ablated.window("INTEGRATED", "crt-part").top
        assert not ablated.integrated_is_constant()
