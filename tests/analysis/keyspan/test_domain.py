"""The Ticks domain: Count's algebra with window-sized headroom."""

from repro.analysis.ir.domain import Count
from repro.analysis.keyspan.domain import Ticks


class TestCaps:
    def test_headroom_above_count(self):
        # A few thousand ticks is an ordinary mint→scrub distance and
        # must not saturate the way a copy count of 2740 would.
        window = Ticks(const=2740)
        assert not window.top
        assert window.evaluate(1) == 2740
        assert Count(const=2740).top

    def test_saturation_still_exists(self):
        assert Ticks(const=Ticks.CONST_CAP + 1).top
        assert Ticks(per_conn=Ticks.COEFF_CAP + 1).top

    def test_algebra_stays_in_ticks(self):
        # ClassVar caps only work if the operators rebuild the subclass.
        total = Ticks(const=1000).add(Ticks(per_conn=2))
        assert isinstance(total, Ticks)
        assert isinstance(total.join(Ticks.unbounded()), Ticks)
        assert isinstance(Ticks(const=3).mul(Ticks(const=5)), Ticks)


class TestRendering:
    def test_top_renders_as_infinity(self):
        assert Ticks.unbounded().render() == "∞"

    def test_symbolic_render(self):
        assert Ticks(const=12, per_conn=3).render() == "12 + 3·N"

    def test_lattice_order(self):
        finite = Ticks(const=4240)
        assert finite.leq(Ticks.unbounded())
        assert not Ticks.unbounded().leq(finite)
        assert finite.join(Ticks(const=9)).evaluate(1) == 4240
