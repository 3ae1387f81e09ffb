"""KeySpan over the real tree: the ladder theorem, pinned exactly.

These tests lock the headline obligation from the paper's timeline:
each protection level strictly narrows the exposure-window metric,
ending at a constant bound for every transient copy at INTEGRATED,
with HARDWARE then retiring the one deliberate persistent copy.  The
window values are pinned as exact integers — they are the analysis
result, and silent drift in them is drift in the analysis.
"""

import pytest

from repro.analysis.keyspan import LADDER, analyze
from repro.analysis.keyspan.config import KIND_ORDER

#: The workload evaluates symbolic bounds at this connection count
#: (matches the containment suite's 8 cycled + 4 held).
MIN_N = 8

#: level -> (unbounded transient kinds, worst finite, total finite,
#: persistent copies): the lexicographic narrowing metric.
EXPECTED_METRICS = {
    "NONE": (5, 0, 0, 0),
    "KERNEL": (3, 2320, 3072, 0),
    "APPLICATION": (2, 2320, 3072, 1),
    "LIBRARY": (1, 4242, 7314, 1),
    "INTEGRATED": (0, 4242, 7314, 1),
    "HARDWARE": (0, 4242, 7314, 0),
}


@pytest.fixture(scope="module")
def report(shipped_project):
    return analyze(project=shipped_project)


class TestInventory:
    def test_exactly_the_reviewed_mint_sites(self, report):
        assert report.finding_ids() == [
            "aligned-key-page:repro.core.memory_align.rsa_memory_align:memalign#0",
            "crt-part:repro.ssl.d2i.d2i_privatekey:bn_bin2bn#0",
            "der-buffer:repro.ssl.d2i.d2i_privatekey:pem_decode#0",
            "mont-cache:repro.ssl.engine.rsa_private_operation:MontgomeryContext#0",
            "mont-cache:repro.ssl.engine.rsa_private_operation:MontgomeryContext#1",
            "mont-cache:repro.ssl.rsa_st.RsaStruct.ensure_mont:MontgomeryContext#0",
            "pagecache-pem:repro.ssl.d2i.d2i_privatekey:bio_read_file#0",
            "pem-buffer:repro.ssl.d2i.d2i_privatekey:bio_read_file#0",
        ]

    def test_all_sites_are_deployed(self, report):
        assert all(f.deployed for f in report.findings)

    def test_stock_openssl_has_no_finally_scrubs(self, report):
        # Faithful to the original code: no mint site's scrubs cover
        # the exception routes — the missed-``finally`` finding class
        # exists everywhere in the stock tree.
        assert all(not f.exception_covered for f in report.findings)


class TestLadderTheorem:
    def test_expected_metric_per_level(self, report):
        for level, expected in EXPECTED_METRICS.items():
            assert report.level_metric(level, MIN_N) == expected, level

    def test_ladder_strictly_narrows(self, report):
        assert report.ladder_is_strictly_narrowing(MIN_N)
        assert report.ladder_is_strictly_narrowing(1)

    def test_integrated_transients_are_constant(self, report):
        assert report.integrated_is_constant()
        worst = report.worst_transient("INTEGRATED")
        assert worst is not None
        assert not worst.top and not worst.per_conn
        assert worst.evaluate(MIN_N) == 4242

    def test_none_level_is_all_unbounded(self, report):
        assert report.unbounded_transient_kinds("NONE") == [
            k for k in KIND_ORDER if k != "aligned-key-page"
        ]

    def test_pagecache_is_killed_only_by_nocache(self, report):
        # No user-space scrub reaches the page cache: the window is ∞
        # at every level below INTEGRATED, then the copy never exists.
        for level in ("NONE", "KERNEL", "APPLICATION", "LIBRARY"):
            assert report.window(level, "pagecache-pem").top
        assert report.window("INTEGRATED", "pagecache-pem") is None

    def test_hardware_retires_the_aligned_page(self, report):
        assert report.window("INTEGRATED", "aligned-key-page").top
        assert report.window("HARDWARE", "aligned-key-page") is None


class TestExceptionRoutes:
    def test_residual_never_tighter_than_steady(self, report):
        for level in LADDER:
            for kind in KIND_ORDER:
                steady = report.windows[level].get(kind)
                residual = report.exception_windows[level].get(kind)
                assert (steady is None) == (residual is None)
                if steady is not None:
                    assert steady.leq(residual)

    def test_kernel_teardown_bounds_the_raise_route(self, report):
        # With zero-on-free the raise route is bounded by the process
        # teardown backstop; der's steady 752 joins up to 2048.
        assert report.exception_windows["KERNEL"]["der-buffer"].evaluate(1) == 2048
        assert report.exception_windows["INTEGRATED"]["der-buffer"].evaluate(1) == 2048

    def test_without_kernel_zero_the_raise_route_is_unbounded(self, report):
        # APPLICATION/LIBRARY scrub on the normal path only: a raise
        # between mint and free leaks the buffer forever.
        for level in ("APPLICATION", "LIBRARY"):
            assert report.exception_windows[level]["pem-buffer"].top
            assert report.exception_windows[level]["der-buffer"].top


class TestRenderers:
    def test_json_shape(self, report):
        payload = report.to_json_dict()
        assert payload["tool"] == "keyspan"
        assert payload["ladder"] == list(LADDER)
        assert set(payload["windows"]) == set(LADDER)
        assert payload["metrics"]["NONE"] == [5, 0, 0, 0]

    def test_sarif_marks_missed_finally_as_warning(self, report):
        results = report.to_sarif()["runs"][0]["results"]
        assert len(results) == len(report.findings)
        assert all(r["level"] == "warning" for r in results)

    def test_text_report_shows_the_ladder(self, report):
        text = report.render_text()
        assert "∞" in text and "4242" in text
        assert "no-finally-scrub" in text
        for level in LADDER:
            assert level in text
