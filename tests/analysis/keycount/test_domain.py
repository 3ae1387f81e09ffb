"""The Count lattice: arithmetic, saturation, and the two orders."""

import pytest

from repro.analysis.ir.domain import COEFF_CAP, CONST_CAP, Count


class TestConstruction:
    def test_constructors(self):
        assert Count.zero().is_zero
        assert Count.one() == Count(1, 0)
        assert Count.per_connection(3) == Count(0, 3)
        assert Count.unbounded().top

    def test_negative_components_rejected(self):
        with pytest.raises(ValueError):
            Count(-1, 0)
        with pytest.raises(ValueError):
            Count(0, -2)

    def test_cap_overflow_widens_to_top(self):
        assert Count(CONST_CAP + 1, 0).top
        assert Count(0, COEFF_CAP + 1).top
        # widening normalises the components away
        assert Count(CONST_CAP + 1, 0) == Count.unbounded()

    def test_values_at_cap_stay_finite(self):
        assert not Count(CONST_CAP, COEFF_CAP).top


class TestArithmetic:
    def test_add_is_componentwise(self):
        assert Count(2, 3).add(Count(1, 4)) == Count(3, 7)

    def test_add_saturates_through_top(self):
        assert Count.unbounded().add(Count.one()).top
        assert Count(CONST_CAP, 0).add(Count.one()).top

    def test_mul_by_constant_scales(self):
        assert Count(1, 2).mul(Count(3, 0)) == Count(3, 6)
        assert Count(1, 2).scale(3) == Count(3, 6)

    def test_mul_linear_times_linear_widens(self):
        # there is no N² element: nested connection loops go to ⊤
        assert Count(0, 1).mul(Count(0, 1)).top
        assert Count(1, 1).mul(Count(2, 1)).top

    def test_mul_by_zero_is_zero_even_for_top(self):
        assert Count.unbounded().mul(Count.zero()).is_zero
        assert Count.zero().mul(Count.unbounded()).is_zero

    def test_join_is_componentwise_max(self):
        assert Count(2, 1).join(Count(1, 3)) == Count(2, 3)
        assert Count(2, 1).join(Count.unbounded()).top


class TestOrders:
    def test_leq_is_the_lattice_order(self):
        assert Count(1, 2).leq(Count(2, 2))
        assert not Count(3, 0).leq(Count(2, 5))  # const incomparable
        assert Count(3, 0).leq(Count.unbounded())
        assert not Count.unbounded().leq(Count(3, 0))

    def test_covers_is_the_semantic_order(self):
        # 6 + 20·N dominates 7 for every n >= 1 though leq says no
        assert Count(6, 20).covers(Count(7, 0))
        assert not Count(7, 0).leq(Count(6, 20))
        assert not Count(7, 0).covers(Count(6, 20))

    def test_covers_respects_min_n(self):
        # 2 + N vs 4: equal at n=2, dominated below it
        assert not Count(2, 1).covers(Count(4, 0), min_n=1)
        assert Count(2, 1).covers(Count(4, 0), min_n=2)

    def test_strictly_covers_requires_strict_gap(self):
        # (2, 1) and (3, 0) coincide at n=1: covers but not strictly
        assert Count(2, 1).covers(Count(3, 0))
        assert not Count(2, 1).strictly_covers(Count(3, 0))
        assert Count(2, 1).strictly_covers(Count(3, 0), min_n=2)
        assert Count.unbounded().strictly_covers(Count(3, 0))
        assert not Count(3, 0).strictly_covers(Count.unbounded())


class TestEvaluateRender:
    def test_evaluate_instantiates_n(self):
        assert Count(6, 20).evaluate(12) == 246
        assert Count.zero().evaluate(5) == 0
        assert Count.unbounded().evaluate(5) is None

    @pytest.mark.parametrize(
        "count,text",
        [
            (Count.zero(), "0"),
            (Count.one(), "1"),
            (Count(0, 1), "N"),
            (Count(0, 2), "2·N"),
            (Count(6, 20), "6 + 20·N"),
            (Count.unbounded(), "⊤"),
        ],
    )
    def test_render(self, count, text):
        assert count.render() == text

    def test_json_round_trip_fields(self):
        payload = Count(1, 2).to_json_dict()
        assert payload == {
            "const": 1, "per_conn": 2, "top": False, "render": "1 + 2·N"
        }
