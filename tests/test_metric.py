import pytest
from hypothesis import given
from hypothesis import strategies as st

from teride.errors import EmptyValue
from teride.metric import DistanceFn, jaccard_dist, jaccard_sim
from teride.model import Repository
from teride.pivot import select_pivots

from .conftest import make_tuple, ts

tokens = st.frozensets(st.sampled_from("abcdefgh"), min_size=1, max_size=6)
# token sets plus numeric singletons, which absdiff treats as numbers
values = tokens | st.floats(0, 2, allow_nan=False).map(lambda x: frozenset({str(x)}))
# and the values at the edges of what absdiff reads as a finite number
odd_values = values | st.sampled_from(["nan", "inf", "1e400", "-0"]).map(lambda x: frozenset({x}))


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

    def test_absdiff_non_finite_numbers_fall_back_to_equality(self, absdiff):
        non_finite = ("nan", "inf", "-inf", "1e999")
        for a in non_finite:
            for b in (*non_finite, "0.5", "a1"):
                want = 0.0 if a == b else 1.0
                assert absdiff(ts(a), ts(b)) == absdiff(ts(b), ts(a)) == want, (a, b)

    def test_pivots_over_non_finite_numbers(self, absdiff):
        rows = [
            make_tuple(f"s{i}", -1, 0, ts(v), ts(f"a{i % 2}"))
            for i, v in enumerate(["nan", "0.2", "inf", "0.3", "1e999", "nan", "0.7"])
        ]
        pivots = select_pivots(Repository(rows), dist=absdiff)
        assert pivots.d == 2

    @given(st.sampled_from([DistanceFn.JACCARD, DistanceFn.ABSDIFF]), values, values)
    def test_symmetric_under_both_kinds(self, kind, a, b):
        dist = DistanceFn(kind)
        assert dist(a, b) == dist(b, a)

    @given(st.sampled_from([DistanceFn.JACCARD, DistanceFn.ABSDIFF]), odd_values, odd_values)
    def test_key_disjoint_values_lie_at_distance_one(self, kind, a, b):
        dist = DistanceFn(kind)
        assert dist.keys(a) and dist.keys(b)
        if dist.keys(a).isdisjoint(dist.keys(b)):
            assert dist(a, b) == 1.0

    @given(st.sampled_from([DistanceFn.JACCARD, DistanceFn.ABSDIFF]), st.lists(odd_values))
    def test_postings_list_each_keys_values_in_order(self, kind, vals):
        dist = DistanceFn(kind)
        want: dict = {}
        for i, v in enumerate(vals):
            for key in dist.keys(v):
                want.setdefault(key, []).append(i)
        assert dist.postings(vals) == want

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

