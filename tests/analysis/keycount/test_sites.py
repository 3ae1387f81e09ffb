"""Site collection: multipliers, guards, and the free-without-clear rule."""

import pytest

from repro.analysis.ir.project import Project
from repro.analysis.ir.domain import Count
from repro.analysis.keycount.sites import collect_function

SOURCE = '''
def straight(process, blob):
    bn = bn_bin2bn(process, blob)

def per_connection_loop(process, connections, blob):
    for conn in connections:
        bn_bin2bn(process, blob)

def part_loop(process, blob):
    for name in PART_NAMES:
        bn_bin2bn(process, blob)

def range_loop(process, blob):
    for i in range(4):
        bn_bin2bn(process, blob)

def nested_conn_loops(process, sessions, blob):
    for session in sessions:
        for packet in session:
            bn_bin2bn(process, blob)

def guarded(config, process, path):
    if config.use_nocache:
        pass
    else:
        bio_read_file(process, path)

def free_secret(heap, priv_der):
    heap.free(priv_der)

def free_public(heap, counter_buf):
    heap.free(counter_buf)

def free_cleared(heap, priv_der):
    heap.free(priv_der, clear=True)

def free_flag_cleared(heap, priv_der, kernel_zero):
    heap.free(priv_der, clear=kernel_zero)

def free_after_zero(mm, heap, priv_der, size):
    mm.write(priv_der, b"\\x00" * size)
    heap.free(priv_der)
'''


@pytest.fixture(scope="module")
def functions(tmp_path_factory):
    root = tmp_path_factory.mktemp("sites")
    (root / "fixture.py").write_text(SOURCE, encoding="utf-8")
    project = Project.load([root])
    return project.functions


def collect(functions, name):
    info = functions[f"fixture.{name}"]
    return collect_function(info)


class TestMultipliers:
    def test_straight_line_site_counts_once(self, functions):
        sites, _ = collect(functions, "straight")
        (site,) = sites
        assert site.kind == "crt-part"
        assert site.multiplier == Count.one()

    def test_connection_loop_multiplies_by_n(self, functions):
        (site,), _ = collect(functions, "per_connection_loop")
        assert site.multiplier == Count.per_connection()

    def test_part_names_is_a_known_constant_iterable(self, functions):
        (site,), _ = collect(functions, "part_loop")
        assert site.multiplier == Count(6, 0)

    def test_constant_range_is_counted_exactly(self, functions):
        (site,), _ = collect(functions, "range_loop")
        assert site.multiplier == Count(4, 0)

    def test_nested_symbolic_loops_widen_to_top(self, functions):
        (site,), _ = collect(functions, "nested_conn_loops")
        assert site.multiplier.top


class TestGuards:
    def test_else_branch_records_negated_guard(self, functions):
        (site,), _ = collect(functions, "guarded")
        assert site.kind == "pagecache-pem"
        # use_nocache aliases the o_nocache policy flag; the site sits
        # on the else branch, so it exists only when the flag is off.
        assert site.guards == frozenset({("o_nocache", False)})


class TestFreeWithoutClear:
    def test_secret_hinted_free_is_a_site(self, functions):
        (site,), _ = collect(functions, "free_secret")
        assert (site.kind, site.op) == ("temp-buffer", "free")

    def test_non_secret_free_is_ignored(self, functions):
        sites, _ = collect(functions, "free_public")
        assert sites == []

    def test_clear_true_is_not_a_site(self, functions):
        sites, _ = collect(functions, "free_cleared")
        assert sites == []

    def test_clear_flag_becomes_a_negative_guard(self, functions):
        (site,), _ = collect(functions, "free_flag_cleared")
        assert ("kernel_zero", False) in site.guards

    def test_zero_overwrite_makes_the_free_transient(self, functions):
        sites, _ = collect(functions, "free_after_zero")
        assert sites == []


class TestEdges:
    def test_call_edges_carry_loop_multiplier(self, functions):
        _, edges = collect(functions, "per_connection_loop")
        bn_edges = [e for e in edges if e.callee.endswith("bn_bin2bn")]
        # unresolved externals produce no edges; the site itself holds
        # the multiplier, so an empty edge list is fine here
        for edge in bn_edges:
            assert edge.multiplier == Count.per_connection()
