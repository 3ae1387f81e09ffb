"""Unit tests for the byte-granular shadow map."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sanitizer.shadow import ShadowMap, TaintRun


def test_fresh_map_is_clean():
    shadow = ShadowMap(1024, block=256)
    assert shadow.total_tainted() == 0
    assert not shadow.any_in(0, 1024)
    assert shadow.runs_in(0, 1024) == []
    assert list(shadow.iter_tainted_chunks()) == []


def test_set_count_clear_roundtrip():
    shadow = ShadowMap(1024)
    shadow.set_range(100, 50, tag_id=3, origin_id=7)
    assert shadow.total_tainted() == 50
    assert shadow.count_in(0, 1024) == 50
    assert shadow.count_in(100, 50) == 50
    assert shadow.count_in(90, 20) == 10
    assert shadow.any_in(149, 1)
    assert not shadow.any_in(150, 100)
    assert shadow.covered(100, 50)
    assert not shadow.covered(99, 51)
    assert shadow.tag_at(100) == 3
    shadow.clear_range(100, 25)
    assert shadow.total_tainted() == 25
    assert shadow.tag_at(100) == 0


def test_copy_range_carries_tag_and_origin():
    shadow = ShadowMap(1024)
    shadow.set_range(0, 16, tag_id=2, origin_id=9)
    shadow.copy_range(0, 512, 64)
    runs = shadow.runs_in(512, 64)
    assert runs == [TaintRun(512, 16, 2, 9)]


def test_runs_split_on_tag_and_origin_boundaries():
    shadow = ShadowMap(256)
    shadow.set_range(10, 10, tag_id=1, origin_id=1)
    shadow.set_range(20, 10, tag_id=1, origin_id=2)   # same tag, new origin
    shadow.set_range(30, 10, tag_id=2, origin_id=2)   # new tag
    shadow.set_range(50, 5, tag_id=1, origin_id=1)    # detached run
    runs = shadow.runs_in(0, 256)
    assert runs == [
        TaintRun(10, 10, 1, 1),
        TaintRun(20, 10, 1, 2),
        TaintRun(30, 10, 2, 2),
        TaintRun(50, 5, 1, 1),
    ]
    assert runs[0].end == 20


def test_iter_tainted_chunks_skips_clean_pages():
    shadow = ShadowMap(4096 * 8)
    shadow.set_range(4096 * 2 + 7, 3, tag_id=1, origin_id=1)
    shadow.set_range(4096 * 6 + 4000, 200, tag_id=1, origin_id=1)
    chunks = list(shadow.iter_tainted_chunks())
    assert chunks == [(4096 * 2, 4096), (4096 * 6, 4096), (4096 * 7, 4096)]


def _naive_runs(tags, origins, lo, hi):
    """Maximal same-tag/same-origin runs, built one byte at a time."""
    runs = []
    for pos in range(lo, hi):
        if not tags[pos]:
            continue
        key = (tags[pos], origins[pos])
        if runs and runs[-1][0] + runs[-1][1] == pos and runs[-1][2:] == key:
            runs[-1] = (runs[-1][0], runs[-1][1] + 1) + key
        else:
            runs.append((pos, 1) + key)
    return [TaintRun(*run) for run in runs]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data())
def test_index_and_runs_match_a_per_byte_model(data):
    """After any set/clear/copy sequence (with walks in between, which
    prune the tainted-block index), the walk and ``runs_in`` agree with
    a plain per-byte model of the two shadow arrays."""
    block = data.draw(st.sampled_from([16, 64, 4096]))
    size = data.draw(st.integers(1, 5 * block + 7))
    shadow = ShadowMap(size, block=block)
    tags, origins = [0] * size, [0] * size
    for _ in range(data.draw(st.integers(0, 12))):
        op = data.draw(st.sampled_from(["set", "clear", "copy", "walk"]))
        length = data.draw(st.integers(0, min(size, 2 * block)))
        addr = data.draw(st.integers(0, size - length))
        if op == "set":
            tag = data.draw(st.sampled_from([1, 2, 3, 255]))
            origin = data.draw(st.sampled_from([0, 1, 2, 0xFFFF]))
            shadow.set_range(addr, length, tag, origin)
            tags[addr : addr + length] = [tag] * length
            origins[addr : addr + length] = [origin] * length
        elif op == "clear":
            shadow.clear_range(addr, length)
            tags[addr : addr + length] = [0] * length
            origins[addr : addr + length] = [0] * length
        elif op == "copy":
            dst = data.draw(st.integers(0, size - length))
            shadow.copy_range(addr, dst, length)
            tags[dst : dst + length] = tags[addr : addr + length]
            origins[dst : dst + length] = origins[addr : addr + length]
        else:
            list(shadow.iter_tainted_chunks())
    expected = [
        (start, min(block, size - start))
        for start in range(0, size, block)
        if any(tags[start : start + block])
    ]
    assert list(shadow.iter_tainted_chunks()) == expected
    assert list(shadow.iter_tainted_chunks()) == expected
    for start, length in expected:
        assert shadow.runs_in(start, length) == \
            _naive_runs(tags, origins, start, start + length)
    lo = data.draw(st.integers(0, size))
    hi = data.draw(st.integers(lo, size))
    assert shadow.runs_in(lo, hi - lo) == _naive_runs(tags, origins, lo, hi)


def test_copy_range_indexes_the_destination_block():
    shadow = ShadowMap(4096 * 4)
    shadow.set_range(10, 5, tag_id=1, origin_id=1)
    shadow.copy_range(0, 4096 * 3, 64)
    shadow.copy_range(4096, 4096 * 2, 64)  # clean source: nothing to index
    assert list(shadow.iter_tainted_chunks()) == [(0, 4096), (4096 * 3, 4096)]
    assert shadow._blocks == {0, 3}


def test_a_walk_drops_blocks_found_clean():
    shadow = ShadowMap(4096 * 4)
    shadow.set_range(4096 + 100, 8, tag_id=1, origin_id=1)
    shadow.set_range(4096 * 2, 8, tag_id=1, origin_id=1)
    shadow.clear_range(4096 + 100, 8)
    assert list(shadow.iter_tainted_chunks()) == [(4096 * 2, 4096)]
    assert shadow._blocks == {2}
    shadow.copy_range(4096 * 2, 4096 + 50, 8)
    assert list(shadow.iter_tainted_chunks()) == [(4096, 4096), (4096 * 2, 4096)]


def test_bounds_and_id_validation():
    shadow = ShadowMap(64)
    with pytest.raises(ValueError):
        shadow.set_range(60, 10, tag_id=1, origin_id=1)
    with pytest.raises(ValueError):
        shadow.set_range(0, 4, tag_id=0, origin_id=1)     # tag 0 = clean
    with pytest.raises(ValueError):
        shadow.set_range(0, 4, tag_id=256, origin_id=1)
    with pytest.raises(ValueError):
        shadow.count_in(-1, 4)
    with pytest.raises(ValueError):
        ShadowMap(0)
    with pytest.raises(ValueError):
        ShadowMap(64, block=0)


def _formula(shadow, addr, length):
    return set(shadow._tags[addr : addr + length].translate(None, b"\0"))


def test_tags_in_clean_range_is_empty():
    shadow = ShadowMap(1024)
    shadow.set_range(500, 10, tag_id=1, origin_id=1)
    assert shadow.tags_in(0, 500) == set()
    assert shadow.tags_in(510, 0) == set()


def test_tags_in_one_tag():
    shadow = ShadowMap(1024)
    shadow.set_range(100, 50, tag_id=4, origin_id=1)
    shadow.set_range(200, 5, tag_id=4, origin_id=2)  # same tag, new origin
    assert shadow.tags_in(0, 1024) == {4}
    assert shadow.tags_in(149, 1) == {4}
    assert shadow.tags_in(150, 50) == set()


def test_tags_in_several_tags_in_first_occurrence_order():
    shadow = ShadowMap(1024)
    shadow.set_range(10, 5, tag_id=9, origin_id=1)
    shadow.set_range(20, 5, tag_id=1, origin_id=1)
    shadow.set_range(30, 5, tag_id=17, origin_id=1)
    shadow.set_range(40, 5, tag_id=9, origin_id=1)
    present = shadow.tags_in(0, 1024)
    assert present == {1, 9, 17}
    # Same members, same iteration order as the set-of-bytes formula.
    assert list(present) == list(_formula(shadow, 0, 1024))
    assert shadow.tags_in(18, 20) == {1, 17}


def test_tags_in_range_ending_at_the_edge():
    shadow = ShadowMap(256)
    shadow.set_range(250, 6, tag_id=3, origin_id=1)
    assert shadow.tags_in(200, 56) == {3}
    assert shadow.tags_in(255, 1) == {3}


def test_tags_in_outside_the_shadow_raises():
    shadow = ShadowMap(256)
    with pytest.raises(ValueError):
        shadow.tags_in(200, 57)
    with pytest.raises(ValueError):
        shadow.tags_in(-1, 4)
    with pytest.raises(ValueError):
        shadow.tags_in(0, -1)
