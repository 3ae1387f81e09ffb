"""End-to-end KeyCount on the real tree: the paper's copy-count ladder.

The acceptance criteria live here: the INTEGRATED deployment proves at
most one allocated copy (the single aligned key page), the total bound
strictly decreases at every ladder step, and ablating any mitigation
term demonstrably loosens the bound it kills — the teeth test showing
the numbers come from the analysis, not from wishful constants.
"""

import json

import pytest

from repro.analysis.keycount import DEFAULT_CONFIG, LADDER, analyze
from repro.analysis.ir.domain import Count
from repro.analysis.sarif import validate_sarif


@pytest.fixture(scope="module")
def report(shipped_project):
    return analyze(project=shipped_project)


EXPECTED_BOUNDS = {
    # level: (allocated, freed, pagecache, swap) as (const, per_conn)
    "NONE": ((6, 20), (8, 24), (1, 2), (0, 0)),
    "KERNEL": ((6, 20), (0, 0), (1, 2), (0, 0)),
    "APPLICATION": ((7, 0), (6, 0), (1, 0), (0, 0)),
    "LIBRARY": ((1, 0), (0, 0), (1, 0), (0, 0)),
    "INTEGRATED": ((1, 0), (0, 0), (0, 0), (0, 0)),
    "HARDWARE": ((0, 0), (0, 0), (0, 0), (0, 0)),
}


class TestBounds:
    @pytest.mark.parametrize("level", list(EXPECTED_BOUNDS), ids=str)
    def test_per_level_bounds_match_the_paper_ladder(self, report, level):
        alloc, freed, pagecache, swap = EXPECTED_BOUNDS[level]
        assert report.bound(level, "allocated") == Count(*alloc)
        assert report.bound(level, "freed") == Count(*freed)
        assert report.bound(level, "pagecache") == Count(*pagecache)
        assert report.bound(level, "swap") == Count(*swap)

    def test_integrated_proves_at_most_one_allocated_copy(self, report):
        bound = report.bound("INTEGRATED", "allocated")
        assert bound.leq(Count.one())
        # and that single copy is the whole residue at INTEGRATED
        assert report.total_bound("INTEGRATED") == Count.one()

    def test_hardware_level_eliminates_every_copy(self, report):
        assert report.total_bound("HARDWARE").is_zero

    def test_ladder_is_strictly_decreasing(self, report):
        assert LADDER == (
            "NONE", "KERNEL", "APPLICATION", "LIBRARY",
            "INTEGRATED", "HARDWARE",
        )
        assert report.ladder_is_strictly_decreasing()

    def test_unprotected_bound_grows_with_connections(self, report):
        assert report.evaluate_total("NONE", 1) < report.evaluate_total("NONE", 100)
        # INTEGRATED is connection-independent: the aligned page
        assert report.evaluate_total("INTEGRATED", 1) == 1
        assert report.evaluate_total("INTEGRATED", 100) == 1


class TestSites:
    def test_eleven_copy_sites_on_the_shipped_tree(self, report):
        assert len(report.findings) == 11

    def test_every_paper_copy_class_is_represented(self, report):
        kinds = {finding.rule for finding in report.findings}
        assert kinds == {
            "crt-part", "mont-cache", "pagecache-pem",
            "aligned-key-page", "temp-buffer", "swap-out",
        }

    def test_known_sites_are_found(self, report):
        ids = set(report.finding_ids())
        assert (
            "crt-part:repro.ssl.d2i.d2i_privatekey:bn_bin2bn#0" in ids
        )
        assert (
            "aligned-key-page:repro.core.memory_align.rsa_memory_align:"
            "memalign#0" in ids
        )
        assert (
            "pagecache-pem:repro.ssl.d2i.d2i_privatekey:bio_read_file#0"
            in ids
        )


class TestAblationTeeth:
    """Dropping a mitigation term must loosen exactly the bound it kills."""

    def test_without_o_nocache_the_pagecache_copy_survives(self, report):
        ablated = analyze(config=DEFAULT_CONFIG.without_mitigation("o_nocache"))
        assert ablated.bound("INTEGRATED", "pagecache") == Count.one()
        assert report.bound("INTEGRATED", "pagecache").is_zero
        assert ablated.total_bound("INTEGRATED").strictly_covers(
            report.total_bound("INTEGRATED")
        )

    def test_without_lib_align_the_crt_parts_survive(self, report):
        ablated = analyze(config=DEFAULT_CONFIG.without_mitigation("lib_align"))
        assert ablated.bound("INTEGRATED", "allocated") == Count(7, 0)
        assert report.bound("INTEGRATED", "allocated") == Count.one()

    def test_without_kernel_zero_the_freed_region_refills(self, report):
        ablated = analyze(config=DEFAULT_CONFIG.without_mitigation("kernel_zero"))
        assert ablated.bound("KERNEL", "freed") == Count(8, 24)
        assert report.bound("KERNEL", "freed").is_zero

    def test_unknown_mitigation_is_rejected(self):
        with pytest.raises(ValueError):
            DEFAULT_CONFIG.without_mitigation("wishful_thinking")


class TestOutputs:
    def test_sarif_is_valid_and_carries_all_sites(self, report):
        doc = report.to_sarif()
        assert validate_sarif(doc) == []
        results = doc["runs"][0]["results"]
        assert len(results) == len(report.findings)

    def test_json_is_serializable_and_has_bounds(self, report):
        payload = json.loads(json.dumps(report.to_json_dict()))
        for level in EXPECTED_BOUNDS:
            assert level in payload["bounds"]
        assert payload["bounds"]["INTEGRATED"]["allocated"]["const"] == 1

    def test_text_report_shows_the_ladder_table(self, report):
        text = report.render_text()
        for level in EXPECTED_BOUNDS:
            assert level in text
        assert "6 + 20·N" in text
        assert "copy sites" in text
