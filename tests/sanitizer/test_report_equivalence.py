"""``KeySan.report`` equals the straightforward census it replaced.

:func:`reference_report` is the earlier body of ``KeySan.report``: it
copies all of RAM and the whole swap device, searches every pattern
twice over the RAM copy (once for the copy census, once for the
full-copy spans), tests each tainted run against every span, and counts
tainted bytes over the whole shadow.  It walks the shadow on its own:
every page is tested with ``bytearray.count`` and runs are built one
byte at a time, so neither the shadow's tainted-block index nor its
zero search is trusted.  The shipped ``report`` does the same census
in single sparse passes.  Both run on machines driven
through sessions at every ``ProtectionLevel``, with swap-out under
memory pressure, an injected torn swap write, page-cache residue and
an n_tty disclosure, and must agree on every field.
"""

import dataclasses
from typing import Dict, List, Set, Tuple

import pytest

from repro.attacks.keysearch import KeyPatternSet
from repro.core.protection import ProtectionLevel
from repro.core.simulation import Simulation, SimulationConfig
from repro.faults import FaultPlan
from repro.kernel.kernel import Kernel, KernelConfig
from repro.kernel.vm import VmaFlag
from repro.sanitizer import KeySan
from repro.sanitizer.report import (
    REGION_CLASS_OF,
    CopyRecord,
    ExposureWindow,
    TaintDiagnostic,
    TaintReport,
)
from repro.sanitizer.shadow import TaintRun
from tests.sanitizer.test_shadow import _naive_runs


def _tainted_pages(shadow, page_size: int) -> List[int]:
    """Every page holding a nonzero tag, each one counted in full."""
    return [
        start for start in range(0, shadow.size, page_size)
        if shadow._tags.count(0, start, min(shadow.size, start + page_size))
        != min(page_size, shadow.size - start)
    ]


def _summary(keysan, runs: List[TaintRun]):
    """``KeySan._range_summary`` over runs the oracle built itself."""
    tags: Dict[str, int] = {}
    origins: List[str] = []
    for run in runs:
        tag = keysan.tags.get(run.tag_id)
        name = tag.name if tag is not None else f"tag#{run.tag_id}"
        tags[name] = tags.get(name, 0) + run.length
        origin = keysan.origin_name(run.origin_id)
        if origin not in origins:
            origins.append(origin)
    return tags, tuple(origins)


def reference_report(keysan, patterns) -> TaintReport:
    """The census by full copies and full passes (test-only oracle)."""
    physmem = keysan.kernel.physmem
    page_size = physmem.page_size
    report = TaintReport()
    report.tainted_bytes_total = keysan.shadow.total_tainted()
    report.site_table = {site: dict(tags) for site, tags in keysan.site_stats.items()}
    report.diagnostics = list(keysan.diagnostics)
    report.clock = keysan.clock

    def _tag_name(tag_id: int) -> str:
        tag = keysan.tags.get(tag_id)
        return tag.name if tag is not None else f"tag#{tag_id}"

    report.exposure_windows = [
        ExposureWindow(_tag_name(tag_id), page, birth, close)
        for tag_id, page, birth, close in keysan.closed_exposures
    ]
    report.open_exposures = [
        ExposureWindow(_tag_name(tag_id), page, birth, None)
        for (tag_id, page), birth in sorted(keysan._open.items())
    ]

    shadow = keysan.shadow

    def page_runs(start: int) -> List[TaintRun]:
        """One page's runs, built one byte at a time."""
        stop = min(start + page_size, shadow.size)
        return _naive_runs(shadow._tags, shadow._origins, start, stop)

    tainted = {start: page_runs(start) for start in _tainted_pages(shadow, page_size)}
    for start, runs in tainted.items():
        region = keysan._region_of(start // page_size)
        for run in runs:
            name = _tag_name(run.tag_id)
            report.by_tag[name] = report.by_tag.get(name, 0) + run.length
            report.by_region[region] = report.by_region.get(region, 0) + run.length

    for start, runs in tainted.items():
        frame = start // page_size
        page = keysan.kernel.page(frame)
        if not page.in_pagecache:
            continue
        tags, origins = _summary(keysan, runs)
        report.diagnostics.append(
            TaintDiagnostic(
                kind="pagecache-residue",
                frame=frame,
                tags=tags,
                origins=origins,
                trigger_site="repro.sanitizer.keysan.KeySan.report",
                detail=f"file page {page.mapping} still caches key bytes",
            )
        )

    snapshot = physmem.snapshot()
    report._patterns = dict(patterns.patterns)
    copy_pages: Dict[int, Set[str]] = {}
    for name, pattern in patterns.items():
        tracked = untracked = 0
        pos = snapshot.find(pattern)
        while pos != -1:
            if keysan.shadow.covered(pos, len(pattern)):
                tracked += 1
            else:
                untracked += 1
            copy_pages.setdefault(pos // page_size, set()).add(name)
            pos = snapshot.find(pattern, pos + len(pattern))
        report.full_copies[name] = tracked
        report.untracked_copies[name] = untracked
    for page in sorted(copy_pages):
        region = keysan._region_of(page)
        _, origins = _summary(keysan, page_runs(page * page_size))
        report.copies.append(
            CopyRecord(
                page=page,
                region=region,
                region_class=REGION_CLASS_OF.get(region, "allocated"),
                patterns=tuple(sorted(copy_pages[page])),
                origins=origins,
            )
        )
    swap_image = keysan.kernel.swap.raw_dump()
    for name, pattern in patterns.items():
        count = 0
        pos = swap_image.find(pattern)
        while pos != -1:
            count += 1
            pos = swap_image.find(pattern, pos + len(pattern))
        if count:
            report.swap_hits[name] = count

    full_spans: List[Tuple[int, int]] = []
    for pattern in report._patterns.values():
        pos = snapshot.find(pattern)
        while pos != -1:
            full_spans.append((pos, pos + len(pattern)))
            pos = snapshot.find(pattern, pos + len(pattern))
    full_spans.sort()
    for runs in tainted.values():
        for run in runs:
            if not any(lo <= run.start and run.end <= hi for lo, hi in full_spans):
                report.fragments += 1
    return report


def _fields(report: TaintReport) -> dict:
    return {
        field.name: getattr(report, field.name)
        for field in dataclasses.fields(report)
    }


def _drive(level: ProtectionLevel, plan=None) -> Simulation:
    sim = Simulation(SimulationConfig(
        level=level, memory_mb=8, key_bits=256, seed=7, taint=True,
        fault_plan=plan,
    ))
    sim.start_server()
    sim.cycle_connections(3)
    sim.hold_connections(4)
    sim.kernel.reclaim_pages(600)  # memory pressure: swap pages out
    sim.cycle_connections(2)
    sim.run_ntty_attack()
    return sim


#: Every level plain, plus NONE with a torn swap write.  Write 50 is
#: the first to carry the key page, so half of it lands in the slot.
CASES = [(level, None) for level in ProtectionLevel] + [
    (ProtectionLevel.NONE, {"swap.torn": [50]}),
]


@pytest.fixture(scope="module")
def audits():
    results = []
    for level, plan in CASES:
        sim = _drive(level, FaultPlan(plan) if plan else None)
        expected = reference_report(sim.keysan, sim.patterns)
        actual = sim.taint_report()
        scan = sim.scan()
        results.append((level, plan, expected, actual, scan))
    return results


@pytest.mark.parametrize("case", range(len(CASES)),
                         ids=[f"{level.value}{'-torn' if plan else ''}"
                              for level, plan in CASES])
def test_report_matches_the_reference_field_for_field(audits, case):
    level, plan, expected, actual, scan = audits[case]
    assert _fields(actual) == _fields(expected)
    assert actual.tainted_bytes_total == sum(actual.by_tag.values())
    assert actual.cross_check(scan) == expected.cross_check(scan)


def test_every_census_branch_is_exercised(audits):
    """The comparison is only as strong as its inputs: some machine has
    swap hits, fragments, page-cache residue, disclosures and copies."""
    reports = [actual for _, _, _, actual, _ in audits]
    kinds = {d.kind for report in reports for d in report.diagnostics}
    assert {"pagecache-residue", "disclosure", "swap-out-tainted"} <= kinds
    assert any(report.swap_hits for report in reports)
    assert any(report.fragments for report in reports)
    assert any(report.copies for report in reports)
    _, plan, _, torn, _ = audits[-1]
    assert plan and torn.swap_hits


def test_self_overlapping_pattern_counts_non_overlapping_copies():
    """Key patterns never overlap themselves, so the session machines
    cannot tell greedy non-overlapping counting from counting every
    hit; a periodic secret can."""
    kernel = Kernel(KernelConfig(memory_mb=2))
    keysan = KeySan.attach(kernel)
    secret = b"\x05\x06" * 20
    keysan.register_secret("k", secret)
    process = kernel.create_process("victim")
    vma = process.mm.mmap_anon(4 * 4096, VmaFlag.READ | VmaFlag.WRITE, name="heap")
    process.mm.write(vma.start, secret)
    process.mm.swap_out(vma.start // 4096)
    patterns = KeyPatternSet({"k": b"\x05\x06" * 8}, canonical=False)
    actual = keysan.report(patterns)
    assert _fields(actual) == _fields(reference_report(keysan, patterns))
    # 40 bytes hold two non-overlapping 16-byte copies, in the freed
    # frame and in the swap slot alike.
    assert actual.full_copies == {"k": 2}
    assert actual.swap_hits == {"k": 2}
