"""``KeySan.on_write`` plants exactly what the bytewise hook it replaced did.

:func:`reference_on_write` is the earlier body of ``KeySan.on_write``
and :func:`reference_sync_exposures` the earlier ``_sync_exposures``:
every anchor of every secret is searched in every write, each hit is
extended one byte at a time in both directions, and every touched page
is censused with ``runs_in``.  The shipped hook skips writes whose
aligned blocks hold no anchor substring, measures runs with slice
compares, measures each alignment once, and censuses pages with
``tags_in``.  Both are driven with the same write streams and must agree
after every write on the shadow, the site table, the continuations and
the exposure clock; whole machines driven through sessions at every
``ProtectionLevel`` must agree on every ``TaintReport`` field.
"""

import dataclasses
import itertools
from types import SimpleNamespace
from typing import List, Optional, Set

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.protection import ProtectionLevel
from repro.core.simulation import Simulation, SimulationConfig
from repro.kernel import fs
from repro.sanitizer.keysan import TAINT_WINDOW, KeySan

PAGE_SIZE = 4096
#: Four pages, so writes straddle page boundaries and open windows on
#: several pages.
SHADOW_SIZE = 4 * PAGE_SIZE


def reference_sync_exposures(keysan, addr: int, length: int) -> None:
    """Per-page tag census by a galloping ``runs_in`` pass (test-only)."""
    if length <= 0:
        return
    page_size = keysan.kernel.physmem.page_size
    first = addr // page_size
    last = (addr + length - 1) // page_size
    for page in range(first, last + 1):
        base = page * page_size
        tainted = keysan.shadow.any_in(base, page_size)
        open_here = keysan._open_by_page.get(page)
        if not tainted and not open_here:
            continue
        present: Set[int] = set()
        if tainted:
            for run in keysan.shadow.runs_in(base, page_size):
                present.add(run.tag_id)
        if open_here is not None:
            for tag_id in tuple(open_here - present):
                keysan.note_scrub(tag_id, page)
        for tag_id in present:
            keysan.note_birth(tag_id, page)


def reference_on_write(keysan, addr: int, data: bytes) -> None:
    """Every anchor searched, every hit extended bytewise (test-only)."""
    keysan.clock += 1
    length = len(data)
    pending, keysan._pending = keysan._pending, []
    keysan.shadow.clear_range(addr, length)
    if not keysan.tags or data.count(0) == length:
        reference_sync_exposures(keysan, addr, length)
        return
    site: Optional[str] = None
    for tag_id, sec_off, origin_id in pending:
        tag = keysan.tags[tag_id]
        n = min(len(tag.secret) - sec_off, length)
        if n > 0 and data[:n] == tag.secret[sec_off : sec_off + n]:
            keysan.shadow.set_range(addr, n, tag_id, origin_id)
            keysan._note_planted(keysan.origin_name(origin_id), tag, n)
            keysan.events_matched += 1
            if n == length and sec_off + n < len(tag.secret):
                keysan._pending.append((tag_id, sec_off + n, origin_id))
    for tag in keysan.tags.values():
        secret = tag.secret
        marked_until = -1
        for sec_off, window in tag.anchors:
            pos = data.find(window)
            while pos != -1:
                begin, j = pos, sec_off
                while begin > 0 and j > 0 and data[begin - 1] == secret[j - 1]:
                    begin -= 1
                    j -= 1
                end = pos + len(window)
                k = sec_off + len(window)
                while end < length and k < len(secret) and data[end] == secret[k]:
                    end += 1
                    k += 1
                if end > marked_until:
                    if site is None:
                        site = keysan._call_site()
                    origin_id = keysan._origin_id(site)
                    keysan.shadow.set_range(addr + begin, end - begin,
                                            tag.tag_id, origin_id)
                    keysan._note_planted(site, tag, end - begin)
                    keysan.events_matched += 1
                    marked_until = end
                    if end == length and k < len(secret):
                        keysan._pending.append((tag.tag_id, k, origin_id))
                pos = data.find(window, pos + 1)
    reference_sync_exposures(keysan, addr, length)


def _state(keysan) -> dict:
    """Everything the write hook may change, order-sensitive."""
    return {
        "tags": bytes(keysan.shadow._tags),
        "origins": keysan.shadow._origins.tobytes(),
        "origin_names": list(keysan._origin_names),
        "site_stats": [(site, list(per_tag.items()))
                       for site, per_tag in keysan.site_stats.items()],
        "events_matched": keysan.events_matched,
        "pending": list(keysan._pending),
        "clock": keysan.clock,
        "open": list(keysan._open.items()),
        "open_by_page": {page: sorted(tags)
                         for page, tags in keysan._open_by_page.items()},
        "closed_exposures": list(keysan.closed_exposures),
    }


def _sanitizer() -> KeySan:
    physmem = SimpleNamespace(size=SHADOW_SIZE, page_size=PAGE_SIZE)
    return KeySan(SimpleNamespace(physmem=physmem))


def _write_both(shipped: KeySan, reference: KeySan, addr: int, data: bytes) -> None:
    # One caller frame for both hooks, so both attribute the same site.
    shipped.on_write(addr, data)
    reference_on_write(reference, addr, data)


def replay(stream) -> List[dict]:
    """Run one stream through both hooks; return the shipped states."""
    secrets, ops = stream
    shipped, reference = _sanitizer(), _sanitizer()
    states = []
    for op in ops:
        if op[0] == "register":
            name, secret = f"s{op[1]}", secrets[op[1]]
            shipped.register_secret(name, secret)
            reference.register_secret(name, secret)
        else:
            _, addr, data = op
            _write_both(shipped, reference, addr, data)
        state = _state(shipped)
        assert state == _state(reference), f"diverged at {op[:2]}"
        states.append(state)
    return states


# ----------------------------------------------------------------------
# write streams
# ----------------------------------------------------------------------
#: Periodic secrets have more than one alignment per anchor hit.
PERIODIC = [b"\x01\x02" * 40, b"\xaa" * 33, b"abc" * 9 + b"ab"]

SECRET = st.one_of(
    st.binary(min_size=1, max_size=TAINT_WINDOW - 1),  # block drops below 8
    st.binary(min_size=TAINT_WINDOW, max_size=120),
    st.sampled_from(PERIODIC),
)
FILLER = st.one_of(
    st.binary(max_size=40),
    st.integers(0, 24).map(bytes),  # zero runs
)


@st.composite
def payload(draw, secrets) -> bytes:
    """Filler mixed with fragments, whole copies and doubled copies."""
    parts = []
    for _ in range(draw(st.integers(1, 4))):
        parts.append(draw(FILLER))
        secret = secrets[draw(st.integers(0, len(secrets) - 1))]
        kind = draw(st.sampled_from(["fragment", "whole", "twice", "none"]))
        if kind == "fragment":
            start = draw(st.integers(0, len(secret) - 1))
            end = draw(st.integers(start + 1, len(secret)))
            parts.append(secret[start:end])
        elif kind == "whole":
            parts.append(secret)
        elif kind == "twice":
            parts += [secret, draw(FILLER), secret]
    return b"".join(parts)


@st.composite
def streams(draw):
    """Registered secrets and a list of ``register`` / ``write`` ops;
    a ``split`` writes one secret across two consecutive writes."""
    secrets = draw(st.lists(SECRET, min_size=1, max_size=4, unique=True))
    ops = [("register", 0)]
    registered = 1
    for _ in range(draw(st.integers(1, 10))):
        if registered < len(secrets) and draw(st.integers(0, 3)) == 0:
            ops.append(("register", registered))
            registered += 1
        kind = draw(st.sampled_from(["write", "write", "split"]))
        if kind == "write":
            data = draw(payload(secrets))
            addr = draw(st.integers(0, SHADOW_SIZE - len(data)))
            ops.append(("write", addr, data))
        else:
            secret = secrets[draw(st.integers(0, len(secrets) - 1))]
            cut = draw(st.integers(0, len(secret)))
            head = draw(FILLER) + secret[:cut]
            tail = secret[cut:] + draw(FILLER)
            addr = draw(st.integers(0, SHADOW_SIZE - len(head) - len(tail)))
            ops.append(("write", addr, head))
            ops.append(("write", addr + len(head), tail))
    return secrets, ops


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(stream=streams())
def test_write_hook_matches_the_reference_after_every_write(stream):
    replay(stream)


# ----------------------------------------------------------------------
# fixed streams: each branch the prefilter and run measurement can take
# ----------------------------------------------------------------------
SECRET_A = bytes(range(1, 65))
SECRET_SHORT = b"\x11\x22\x33\x44\x55"


def _fixed(secrets, *writes):
    ops = [("register", index) for index in range(len(secrets))]
    ops += [("write", addr, data) for addr, data in writes]
    return replay((secrets, ops))


def test_split_secret_arms_and_resumes_a_continuation():
    states = _fixed(
        [SECRET_A],
        (PAGE_SIZE - 40, b"\x09" * 8 + SECRET_A[:40]),
        (PAGE_SIZE + 8, SECRET_A[40:] + b"\x09" * 8),
    )
    assert states[-2]["pending"] == [(1, 40, 1)]
    assert states[-1]["pending"] == []
    assert states[-1]["tags"].count(1) == len(SECRET_A)


def test_same_secret_twice_plants_two_runs():
    states = _fixed([SECRET_A], (100, SECRET_A + b"\x07" * 3 + SECRET_A))
    assert states[-1]["events_matched"] == 2
    assert states[-1]["tags"].count(1) == 2 * len(SECRET_A)


def test_periodic_secret_has_several_alignments():
    # 120 bytes of the 80-byte period-2 secret: one run per even shift.
    states = _fixed([PERIODIC[0]], (0, b"\x01\x02" * 60))
    assert states[-1]["events_matched"] == 21


def test_secret_shorter_than_the_window_uses_a_small_block():
    shipped = _sanitizer()
    shipped.register_secret("short", SECRET_SHORT)
    assert shipped._block < 8
    states = _fixed([SECRET_SHORT], (7, b"\x01" + SECRET_SHORT + b"\x02"))
    assert states[-1]["tags"].count(1) == len(SECRET_SHORT)


def test_secret_free_write_is_filtered_and_clears_taint():
    states = _fixed(
        [SECRET_A],
        (0, SECRET_A),
        (0, bytes(range(200, 256)) * 3),  # overwrite: no anchor block
    )
    assert states[-2]["tags"].count(1) == len(SECRET_A)
    assert states[-1]["tags"].count(1) == 0
    assert states[-1]["closed_exposures"]


def test_register_between_writes_taints_only_afterwards():
    ops = [
        ("register", 0),
        ("write", 0, SECRET_SHORT + SECRET_A),
        ("register", 1),
        ("write", 200, SECRET_SHORT + SECRET_A),
    ]
    states = replay(([SECRET_A, SECRET_SHORT], ops))
    assert states[1]["tags"].count(2) == 0
    assert states[3]["tags"].count(2) == len(SECRET_SHORT)


# ----------------------------------------------------------------------
# whole machines
# ----------------------------------------------------------------------
def _drive(level: ProtectionLevel) -> Simulation:
    # File ids come from a process-wide counter and appear in the
    # page-cache diagnostics; both machines start it from 1.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fs, "_file_ids", itertools.count(1))
        sim = Simulation(SimulationConfig(
            level=level, memory_mb=8, key_bits=256, seed=11, taint=True,
        ))
        sim.start_server()
        sim.cycle_connections(4)
    return sim


def _report_fields(sim: Simulation) -> dict:
    report = sim.taint_report()
    return {field.name: getattr(report, field.name)
            for field in dataclasses.fields(report)}


@pytest.mark.parametrize("level", list(ProtectionLevel), ids=lambda l: l.value)
def test_whole_machine_reports_match_the_reference(level):
    shipped = _drive(level)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(KeySan, "on_write", reference_on_write)
        patch.setattr(KeySan, "_sync_exposures", reference_sync_exposures)
        reference = _drive(level)
    assert shipped.keysan.events_matched > 0
    assert _state(shipped.keysan) == _state(reference.keysan)
    assert _report_fields(shipped) == _report_fields(reference)
