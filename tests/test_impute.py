import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teride.errors import ImputationFailed, NoSupportingSample
from teride.impute import (
    ImputedTuple,
    fallback_candidates,
    impute_multi_rule,
    impute_single_rule,
    impute_tuple,
)
from teride.model import StreamTuple, token_key

from .conftest import make_tuple, make_workload, ts
from .test_cdd import cdd1, cdd2


@pytest.fixture
def incomplete_r():
    return make_tuple("r", 0, 1, ts("a1"), ts("0.3"), None)


class TestSingleRule:
    def test_reference_distribution(self, numeric_repo, absdiff, incomplete_r):
        cd = impute_single_rule(incomplete_r, cdd1(), numeric_repo, absdiff)
        assert cd.entries == {ts("0.1"): 2, ts("0.2"): 2}

    def test_second_rule_distribution(self, numeric_repo, absdiff, incomplete_r):
        cd = impute_single_rule(incomplete_r, cdd2(), numeric_repo, absdiff)
        assert cd.entries == {ts("0.2"): 1, ts("0.35"): 1}

    def test_no_supporting_sample_raises(self, numeric_repo, absdiff):
        r = make_tuple("r", 0, 1, ts("a2"), ts("0.0"), None)
        with pytest.raises(NoSupportingSample):
            impute_single_rule(r, cdd1(), numeric_repo, absdiff)

    def test_sample_subset_gives_same_result(self, numeric_repo, absdiff, incomplete_r):
        full = impute_single_rule(incomplete_r, cdd1(), numeric_repo, absdiff)
        subset = impute_single_rule(
            incomplete_r, cdd1(), numeric_repo, absdiff, samples=numeric_repo.samples[:2]
        )
        assert subset.entries == full.entries


class TestMultiRule:
    def test_reference_pooling(self, numeric_repo, absdiff, incomplete_r):
        cands = dict(
            impute_multi_rule(incomplete_r, [cdd1(), cdd2()], numeric_repo, absdiff)
        )
        assert cands[ts("0.1")] == pytest.approx(2 / 6, abs=1e-9)
        assert cands[ts("0.2")] == pytest.approx(3 / 6, abs=1e-9)
        assert cands[ts("0.35")] == pytest.approx(1 / 6, abs=1e-9)

    def test_unsupported_rules_contribute_nothing(self, numeric_repo, absdiff, incomplete_r):
        pooled = impute_multi_rule(incomplete_r, [cdd1()], numeric_repo, absdiff)
        # cdd2 restricted to samples that cannot satisfy it changes nothing
        also = impute_multi_rule(
            incomplete_r,
            [cdd1(), cdd2()],
            numeric_repo,
            absdiff,
            samples_per_rule={cdd2(): numeric_repo.samples[:1]},
        )
        assert dict(pooled) == dict(also)

    def test_all_rules_unsupported_raises(self, numeric_repo, absdiff):
        r = make_tuple("r", 0, 1, ts("a2"), ts("0.0"), None)
        with pytest.raises(ImputationFailed):
            impute_multi_rule(r, [cdd1(), cdd2()], numeric_repo, absdiff)


class TestFallback:
    def test_uniform_over_top_values(self, numeric_repo):
        cands = fallback_candidates(numeric_repo, 0, k=5)
        assert [v for v, _ in cands] == [ts("a1"), ts("a2")]
        assert all(p == pytest.approx(0.5) for _, p in cands)


class TestImputedTuple:
    def test_complete_tuple_single_instance(self):
        r = make_tuple("r", 0, 1, ts("a"), ts("b"))
        it = ImputedTuple(base=r)
        assert it.instances() == [(r, 1.0)]
        assert it.instance_count() == 1

    def test_candidates_must_cover_missing(self):
        r = make_tuple("r", 0, 1, ts("a"), None)
        with pytest.raises(ImputationFailed):
            ImputedTuple(base=r)

    def test_probs_must_sum_to_one(self):
        r = make_tuple("r", 0, 1, ts("a"), None)
        with pytest.raises(ImputationFailed):
            ImputedTuple(base=r, per_attr_candidates={1: [(ts("x"), 0.4)]})

    def test_instances_descending_and_normalized(self):
        r = make_tuple("r", 0, 1, None, None)
        it = ImputedTuple(
            base=r,
            per_attr_candidates={
                0: [(ts("x"), 0.7), (ts("y"), 0.3)],
                1: [(ts("u"), 0.6), (ts("v"), 0.4)],
            },
        )
        inst = it.instances()
        assert len(inst) == 4
        probs = [p for _, p in inst]
        assert probs == sorted(probs, reverse=True)
        assert sum(probs) == pytest.approx(1.0, abs=1e-9)
        assert probs[0] == pytest.approx(0.42)
        for t, _ in inst:
            assert t.is_complete()


class TestImputeTuple:
    def test_pipeline_reference(self, numeric_repo, absdiff, incomplete_r):
        it = impute_tuple(incomplete_r, {2: [cdd1(), cdd2()]}, numeric_repo, absdiff)
        cands = dict(it.per_attr_candidates[2])
        assert cands[ts("0.2")] == pytest.approx(0.5)
        assert it.fallback_attrs == frozenset()

    def test_fallback_flagged_when_no_rule_applies(self, numeric_repo, absdiff):
        r = make_tuple("r", 0, 1, ts("a2"), ts("0.0"), None)
        it = impute_tuple(r, {2: [cdd1(), cdd2()]}, numeric_repo, absdiff)
        assert it.fallback_attrs == frozenset({2})
        vals = [v for v, _ in it.per_attr_candidates[2]]
        assert set(vals) <= set(numeric_repo.domain(2))

    def test_missing_attrs_imputed_independently(self, numeric_repo, absdiff):
        r = make_tuple("r", 0, 1, ts("a1"), None, None)
        it = impute_tuple(r, {}, numeric_repo, absdiff)
        assert set(it.per_attr_candidates) == {1, 2}
        assert it.fallback_attrs == frozenset({1, 2})
        # joint instances multiply the per-attribute probabilities
        n1 = len(it.per_attr_candidates[1])
        n2 = len(it.per_attr_candidates[2])
        assert it.instance_count() == n1 * n2
        assert sum(p for _, p in it.instances()) == pytest.approx(1.0, abs=1e-9)


def reference_enumeration(it):
    """(values, rows, instances) by brute force: every option-index row, sorted by (-p, row).

    Each attribute's options are its present value, or its candidates in
    descending probability with ties broken by token order; ``p`` multiplies
    the chosen options' probabilities in attribute order.
    """
    options = [
        [(v, 1.0)]
        if v is not None
        else sorted(it.per_attr_candidates[j], key=lambda vp: (-vp[1], token_key(vp[0])))
        for j, v in enumerate(it.base.attrs)
    ]
    scored = []
    for row in itertools.product(*(range(len(opts)) for opts in options)):
        p = 1.0
        for opts, i in zip(options, row):
            p *= opts[i][1]
        scored.append((-p, row))
    scored.sort()
    values = [[v for v, _ in opts] for opts in options]
    base = it.base
    instances = [
        (
            StreamTuple(
                rid=base.rid,
                stream_id=base.stream_id,
                arrival_time=base.arrival_time,
                attrs=tuple(vals[i] for vals, i in zip(values, row)),
            ),
            -negp,
        )
        for negp, row in scored
    ]
    return values, [row for _, row in scored], instances


_token_sets = st.frozensets(st.sampled_from("abcdef"), min_size=1, max_size=2)


@st.composite
def uniform_imputed_tuples(draw):
    """Imputed tuples whose candidate lists are uniform, so that equal joint
    probabilities (ties) are common."""
    d = draw(st.integers(min_value=1, max_value=4))
    attrs, cands = [], {}
    for j in range(d):
        if draw(st.booleans()):
            attrs.append(draw(_token_sets))
            continue
        vals = draw(st.lists(_token_sets, min_size=1, max_size=4, unique=True))
        attrs.append(None)
        cands[j] = [(v, 1.0 / len(vals)) for v in vals]
    return ImputedTuple(base=make_tuple("r", 0, 1, *attrs), per_attr_candidates=cands)


@settings(max_examples=300, deadline=None)
@given(it=uniform_imputed_tuples())
def test_instances_are_option_rows_sorted_by_probability_then_row(it):
    values, rows, instances = reference_enumeration(it)
    assert it.instances() == instances
    assert it.instance_rows() == (values, rows)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_workload_imputations_are_valid_distributions(seed):
    from teride.cdd import detect_cdds
    from teride.errors import NoRulesFound
    from teride.metric import DistanceFn

    repo, trace = make_workload(seed=seed, length=10, repo_size=20, xi=0.5, m=1)
    dist = DistanceFn()
    try:
        rules = detect_cdds(repo, dist)
    except NoRulesFound:
        rules = []
    by_dep = {}
    for rule in rules:
        by_dep.setdefault(rule.dependent, []).append(rule)
    for r in trace:
        it = impute_tuple(r, by_dep, repo, dist)
        for j, cands in it.per_attr_candidates.items():
            assert sum(p for _, p in cands) == pytest.approx(1.0, abs=1e-9)
            assert all(p > 0 for _, p in cands)
            assert len({v for v, _ in cands}) == len(cands)
