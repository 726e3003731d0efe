import pytest
from hypothesis import given
from hypothesis import strategies as st

from teride.errors import EmptyValue
from teride.metric import (
    DistanceFn,
    DistInterval,
    SizeInterval,
    attr_min_dist,
    attr_ub_sim_by_size,
    jaccard_dist,
    jaccard_sim,
    tuple_sim,
    ub_sim_by_pivot,
    ub_sim_by_size,
)

from .conftest import make_tuple, ts

tokens = st.frozensets(st.sampled_from("abcdefgh"), min_size=1, max_size=6)
# token sets plus numeric singletons, which absdiff treats as numbers
values = tokens | st.floats(0, 2, allow_nan=False).map(lambda x: frozenset({str(x)}))


class TestJaccard:
    def test_basic(self):
        assert jaccard_sim(ts("a", "b"), ts("b", "c")) == pytest.approx(1 / 3)
        assert jaccard_dist(ts("a"), ts("a")) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(EmptyValue):
            jaccard_sim(frozenset(), ts("a"))

    @given(tokens, tokens)
    def test_range_and_symmetry(self, a, b):
        s = jaccard_sim(a, b)
        assert 0.0 <= s <= 1.0
        assert s == jaccard_sim(b, a)

    @given(tokens, tokens, tokens)
    def test_triangle_inequality(self, a, b, c):
        assert jaccard_dist(a, c) <= jaccard_dist(a, b) + jaccard_dist(b, c) + 1e-12


class TestDistanceFn:
    def test_jaccard_kind_matches_free_function(self):
        dist = DistanceFn()
        assert dist(ts("a", "b"), ts("b")) == jaccard_dist(ts("a", "b"), ts("b"))
        assert dist.sim(ts("a"), ts("a")) == 1.0

    def test_absdiff_on_numeric_singletons(self, absdiff):
        assert absdiff(ts("0.2"), ts("0.3")) == pytest.approx(0.1)
        assert absdiff(ts("0.7"), ts("0.1")) == pytest.approx(0.6)

    def test_absdiff_non_numeric_falls_back_to_equality(self, absdiff):
        assert absdiff(ts("a1"), ts("a1")) == 0.0
        assert absdiff(ts("a1"), ts("a2")) == 1.0

    @given(st.sampled_from([DistanceFn.JACCARD, DistanceFn.ABSDIFF]), values, values)
    def test_symmetric_under_both_kinds(self, kind, a, b):
        dist = DistanceFn(kind)
        assert dist(a, b) == dist(b, a)

    @given(
        st.sampled_from([DistanceFn.JACCARD, DistanceFn.ABSDIFF]),
        values | st.just(frozenset()),
        values | st.just(frozenset()),
    )
    def test_bind_equals_the_distance_bit_for_bit(self, kind, a, b):
        dist = DistanceFn(kind)
        f = dist.bind()
        if kind == DistanceFn.JACCARD and not (a and b):
            with pytest.raises(EmptyValue):
                f(a, b)
            return
        assert f(a, b).hex() == dist(a, b).hex()
        if kind == DistanceFn.JACCARD:
            assert f(a, b).hex() == jaccard_dist(a, b).hex()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            DistanceFn("cosine")


class TestTupleSim:
    def test_sum_of_attribute_similarities(self):
        r1 = make_tuple("r1", 0, 1, ts("a"), ts("x", "y"))
        r2 = make_tuple("r2", 1, 1, ts("a"), ts("y", "z"))
        assert tuple_sim(r1, r2) == pytest.approx(1.0 + 1 / 3)

    def test_requires_complete(self):
        r1 = make_tuple("r1", 0, 1, ts("a"), None)
        r2 = make_tuple("r2", 1, 1, ts("a"), ts("b"))
        with pytest.raises(Exception):
            tuple_sim(r1, r2)


class TestSizeBound:
    def test_reference_value(self):
        # size intervals A: 10 vs 8, B: 7 vs 10, C: [5,7] vs [10,12] -> 2.2
        ub = ub_sim_by_size(
            [SizeInterval(10, 10), SizeInterval(7, 7), SizeInterval(5, 7)],
            [SizeInterval(8, 8), SizeInterval(10, 10), SizeInterval(10, 12)],
        )
        assert ub == pytest.approx(2.2, abs=1e-9)

    def test_overlapping_sizes_give_one(self):
        assert attr_ub_sim_by_size(SizeInterval(3, 5), SizeInterval(4, 6)) == 1.0

    @given(tokens, tokens)
    def test_dominates_exact_similarity(self, a, b):
        ub = attr_ub_sim_by_size(
            SizeInterval(len(a), len(a)), SizeInterval(len(b), len(b))
        )
        assert ub + 1e-12 >= jaccard_sim(a, b)


class TestPivotBound:
    def test_reference_value(self):
        # distances to pivot: {0.3, 0.3, [0.1,0.2]} vs {0.7, 0.8, [0.7,0.9]} -> 1.6
        ub = ub_sim_by_pivot(
            [DistInterval(0.3, 0.3), DistInterval(0.3, 0.3), DistInterval(0.1, 0.2)],
            [DistInterval(0.7, 0.7), DistInterval(0.8, 0.8), DistInterval(0.7, 0.9)],
        )
        assert ub == pytest.approx(1.6, abs=1e-9)

    def test_overlapping_intervals_no_tightening(self):
        assert attr_min_dist(DistInterval(0.1, 0.5), DistInterval(0.4, 0.8)) == 0.0

    @given(tokens, tokens, tokens)
    def test_dominates_exact_similarity(self, a, b, piv):
        da, db = jaccard_dist(a, piv), jaccard_dist(b, piv)
        ub = ub_sim_by_pivot([DistInterval(da, da)], [DistInterval(db, db)])
        assert ub + 1e-12 >= jaccard_sim(a, b)
