import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teride.errors import ConfigError
from teride.metric import DistanceFn
from teride.model import Repository
from teride.pivot import (
    DEFAULT_CNTMAX,
    DEFAULT_EMIN,
    DEFAULT_P,
    entropy,
    joint_entropy,
    pivots_from_text,
    pivots_to_text,
    select_pivots,
)

from .conftest import make_tuple, make_workload, ts


class TestDefaults:
    def test_reference_parameters(self):
        assert DEFAULT_P == 10
        assert DEFAULT_EMIN == 1.5
        assert DEFAULT_CNTMAX == 3

    def test_defaults_flow_into_selection(self, numeric_repo, absdiff):
        pivots = select_pivots(numeric_repo, dist=absdiff)
        assert pivots.bucket_count == 10
        assert pivots.entropy_threshold == 1.5
        assert pivots.max_pivots == 3


class TestEntropy:
    def test_hand_computed(self, absdiff):
        # distances from pivot "0.0": 0.0, 0.5, 1.0 -> three distinct buckets
        repo = Repository(
            [
                make_tuple("x1", -1, 0, ts("0.0")),
                make_tuple("x2", -1, 0, ts("0.5")),
                make_tuple("x3", -1, 0, ts("1.0")),
            ]
        )
        h = entropy(ts("0.0"), 0, repo, P=10, dist=absdiff)
        assert h == pytest.approx(math.log2(3), abs=1e-9)

    def test_degenerate_distribution_is_zero(self, absdiff):
        repo = Repository([make_tuple("x1", -1, 0, ts("0.3")), make_tuple("x2", -1, 0, ts("0.3"))])
        assert entropy(ts("0.3"), 0, repo, P=10, dist=absdiff) == 0.0

    def test_p_validation(self, numeric_repo, absdiff):
        with pytest.raises(ConfigError):
            entropy(ts("a1"), 0, numeric_repo, P=1, dist=absdiff)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 5000), p=st.sampled_from([2, 4, 10]))
    def test_entropy_bounded_by_log2_p(self, seed, p):
        repo, _ = make_workload(seed=seed, length=8, repo_size=16)
        dist = DistanceFn()
        for attr in range(repo.d):
            for candidate in repo.domain(attr)[:5]:
                h = entropy(candidate, attr, repo, P=p, dist=dist)
                assert -1e-12 <= h <= math.log2(p) + 1e-12

    def test_joint_entropy_at_least_single(self):
        repo, _ = make_workload(seed=3, length=10, repo_size=20)
        dist = DistanceFn()
        dom = repo.domain(0)
        h1 = entropy(dom[0], 0, repo, P=10, dist=dist)
        h2 = joint_entropy([dom[0], dom[1]], 0, repo, P=10, dist=dist)
        assert h2 >= h1 - 1e-12


class TestSelection:
    def test_main_pivot_is_exhaustive_argmax(self):
        repo, _ = make_workload(seed=11, length=15, repo_size=30)
        dist = DistanceFn()
        pivots = select_pivots(repo, dist=dist)
        for attr in range(repo.d):
            best = max(
                entropy(v, attr, repo, P=10, dist=dist) for v in repo.domain(attr)
            )
            chosen = entropy(pivots.main(attr), attr, repo, P=10, dist=dist)
            assert chosen == pytest.approx(best, abs=1e-9)

    def test_auxiliaries_only_when_below_threshold(self):
        repo, _ = make_workload(seed=11, length=15, repo_size=30)
        dist = DistanceFn()
        pivots = select_pivots(repo, dist=dist, eMin=1.5, cntMax=3)
        for attr in range(repo.d):
            plist = pivots.per_attr[attr]
            assert 1 <= len(plist) <= 3
            if len(plist) > 1:
                h_main = entropy(plist[0], attr, repo, P=10, dist=dist)
                assert h_main < 1.5
            if len(plist) < 3:
                h_all = joint_entropy(plist, attr, repo, P=10, dist=dist)
                covered = len({tuple(sorted(v)) for v in repo.domain(attr)}) <= len(plist)
                assert h_all >= 1.5 - 1e-9 or covered

    def test_deterministic(self):
        repo, _ = make_workload(seed=5, length=12, repo_size=24)
        dist = DistanceFn()
        a = select_pivots(repo, dist=dist)
        b = select_pivots(repo, dist=dist)
        assert a.per_attr == b.per_attr

    def test_p_validation(self, numeric_repo, absdiff):
        for dist in (absdiff, DistanceFn()):
            with pytest.raises(ConfigError, match="P must be >= 2"):
                select_pivots(numeric_repo, P=1, dist=dist)

    def test_cntmax_validation(self, numeric_repo, absdiff):
        with pytest.raises(ConfigError):
            select_pivots(numeric_repo, cntMax=0, dist=absdiff)

    @pytest.mark.parametrize("emin", [math.nan, math.inf])
    def test_emin_must_be_finite(self, numeric_repo, absdiff, emin):
        with pytest.raises(ConfigError, match="eMin must be finite"):
            select_pivots(numeric_repo, eMin=emin, dist=absdiff)


class TestSerialization:
    def test_roundtrip(self):
        repo, _ = make_workload(seed=9, length=10, repo_size=20)
        pivots = select_pivots(repo, dist=DistanceFn())
        text = pivots_to_text(pivots)
        back = pivots_from_text(text)
        assert pivots_to_text(back) == text
        assert back.per_attr == pivots.per_attr
        assert back.bucket_count == pivots.bucket_count
        assert back.entropy_threshold == pivots.entropy_threshold

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            pivots_from_text("\n")

    @pytest.mark.parametrize(
        "bad_line",
        [
            "PIVOT attr=-1 idx=0 tokens=w1",
            "PIVOT attr=1 idx=-1 tokens=w1",
            "PIVOT attr=1 idx=1 tokens=",
            "PIVOT attr=1 idx=1 tokens=w1++w2",
            "PIVOT attr=1 idx=1 tokens=w1+",
            "PIVOT attr=1 idx=0 tokens=w1",
            "PARAMS P=0 eMin=1.5 cntMax=3",
            "PARAMS P=10 eMin=nan cntMax=3",
            "PARAMS P=10 eMin=1.5 cntMax=0",
            "PARAMS P=10 eMin=1.5 cntMax=3 extra=1",
            "PARAMS P=10 eMin=1.5",
            "PARAMS P=10 P=4 eMin=1.5 cntMax=3",
            "PIVOT attr=1 idx=1 tokens=w1 extra=1",
            "PIVOT attr=1 idx=1 idx=2 tokens=w1",
            "PIVOT attr=1 idx=1",
            "PIVOT attr=1 idx=1 tokens",
            "BOGUS attr=1 idx=1 tokens=w1",
            "PARAMSX P=10 eMin=1.5 cntMax=3",
        ],
    )
    def test_negative_index_or_empty_token_rejected(self, bad_line):
        good = "PIVOT attr=0 idx=0 tokens=a\nPIVOT attr=1 idx=0 tokens=b+c\n"
        assert pivots_from_text(good).per_attr == [[ts("a")], [ts("b", "c")]]
        with pytest.raises(ConfigError, match="line 3"):
            pivots_from_text(good + bad_line + "\n")

    @pytest.mark.parametrize("named", [(0, 2), (1, 2), (2, 0, 3)])
    def test_an_unnamed_attribute_below_the_largest_is_rejected(self, named):
        text = "".join(f"PIVOT attr={x} idx=0 tokens=w{x}\n" for x in named)
        missing = min(set(range(max(named))) - set(named))
        with pytest.raises(ConfigError, match=f"no pivot for attr {missing}, below attr {max(named)}$"):
            pivots_from_text(text)

    def test_a_second_params_line_names_the_first(self):
        good = "PARAMS P=10 eMin=1.5 cntMax=3\nPIVOT attr=0 idx=0 tokens=a\n"
        assert pivots_from_text(good).bucket_count == 10
        with pytest.raises(ConfigError, match="line 3: a second PARAMS line; the first is line 1"):
            pivots_from_text(good + "PARAMS P=4 eMin=1.5 cntMax=3\n")
