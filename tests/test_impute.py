import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teride.cdd import detect_cdds, satisfies_determinants
from teride.errors import ImputationFailed
from teride.impute import (
    ImputedTuple,
    fallback_candidates,
    impute_multi_rule,
    impute_tuple,
)
from teride.index import build_dr_index
from teride.metric import DistanceFn
from teride.model import StreamTuple, token_key
from teride.pivot import PivotSet, select_pivots

from .conftest import make_tuple, make_workload, ts
from .test_cdd import cdd1, cdd2


@pytest.fixture
def incomplete_r():
    return make_tuple("r", 0, 1, ts("a1"), ts("0.3"), None)


class TestSingleRule:
    """One rule is the one-rule case of the pooled count."""

    def test_reference_distribution(self, numeric_repo, absdiff, incomplete_r):
        cands = impute_multi_rule(incomplete_r, [cdd1()], numeric_repo, absdiff)
        assert dict(cands) == {ts("0.1"): 0.5, ts("0.2"): 0.5}

    def test_second_rule_distribution(self, numeric_repo, absdiff, incomplete_r):
        cands = impute_multi_rule(incomplete_r, [cdd2()], numeric_repo, absdiff)
        assert dict(cands) == {ts("0.2"): 0.5, ts("0.35"): 0.5}

    def test_no_supporting_sample_raises(self, numeric_repo, absdiff):
        r = make_tuple("r", 0, 1, ts("a2"), ts("0.0"), None)
        with pytest.raises(ImputationFailed):
            impute_multi_rule(r, [cdd1()], numeric_repo, absdiff)

    def test_sample_subset_gives_same_result(self, numeric_repo, absdiff, incomplete_r):
        full = impute_multi_rule(incomplete_r, [cdd1()], numeric_repo, absdiff)
        subset = impute_multi_rule(
            incomplete_r, [cdd1()], numeric_repo, absdiff,
            samples_per_rule={cdd1(): numeric_repo.samples[:2]},
        )
        assert subset == full


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

    def test_rule_the_dict_does_not_name_scans_the_repository(
        self, numeric_repo, absdiff, incomplete_r
    ):
        full = impute_multi_rule(incomplete_r, [cdd1(), cdd2()], numeric_repo, absdiff)
        # cdd2 is not named, so it scans every sample and still counts s3
        named = impute_multi_rule(
            incomplete_r, [cdd1(), cdd2()], numeric_repo, absdiff,
            samples_per_rule={cdd1(): numeric_repo.samples[:2]},
        )
        assert named == full

    def test_rule_served_no_sample_adds_nothing(self, numeric_repo, absdiff, incomplete_r):
        alone = impute_multi_rule(incomplete_r, [cdd1()], numeric_repo, absdiff)
        served = impute_multi_rule(
            incomplete_r, [cdd1(), cdd2()], numeric_repo, absdiff, samples_per_rule={cdd2(): []}
        )
        assert served == alone
        with pytest.raises(ImputationFailed):
            impute_multi_rule(
                incomplete_r, [cdd1()], numeric_repo, absdiff, samples_per_rule={cdd1(): []}
            )

    def test_all_rules_unsupported_raises(self, numeric_repo, absdiff):
        r = make_tuple("r", 0, 1, ts("a2"), ts("0.0"), None)
        with pytest.raises(ImputationFailed):
            impute_multi_rule(r, [cdd1(), cdd2()], numeric_repo, absdiff)


def brute_force_pool(r, rules, repo, dist):
    """(value, prob) pairs from counting every (rule, repository sample, domain
    value) triple whose sample satisfies the rule's determinants and whose
    value the rule's dependent interval admits; None when nothing counts."""
    counts = Counter()
    for rule in rules:
        j = rule.dependent
        for s in repo.samples:
            for val in repo.domain(j):
                if satisfies_determinants(rule, r, s, dist) and rule.dep_admits(dist(s.attrs[j], val)):
                    counts[val] += 1
    if not counts:
        return None
    total = sum(counts.values())
    return sorted(((v, c / total) for v, c in counts.items()), key=lambda vp: (-vp[1], token_key(vp[0])))


def check_indexed_pooling(repo, tuples, rules, pivots, keywords, dist) -> tuple:
    """Check impute_multi_rule, fed one DR-index retrieval per tuple and
    attribute and the index's near values, against :func:`brute_force_pool`
    bit for bit; return how many (tuple, attribute) pools counted something
    and how many of those read ``near_values``."""
    idx = build_dr_index(repo, pivots, keywords, dist)
    counted = near = 0
    for r in tuples:
        for j in r.missing_attrs():
            applicable = [rule for rule in rules if rule.dependent == j and rule.applicable_to(r)]
            served = idx.samples_per_rule(applicable, r, pivots, dist)
            want = brute_force_pool(r, applicable, repo, dist)
            if want is None:
                with pytest.raises(ImputationFailed):
                    impute_multi_rule(r, applicable, repo, dist, served, idx)
                continue
            # == on the (value, prob) lists compares the floats bit for bit
            assert impute_multi_rule(r, applicable, repo, dist, served, idx) == want, r.rid
            counted += 1
            jaccard = dist.kind == DistanceFn.JACCARD
            near += jaccard and any(not rule.dep_admits(1.0) for rule in applicable)
    return counted, near


def test_indexed_pooling_equals_a_brute_force_count_under_absdiff(numeric_repo, absdiff):
    pivots = PivotSet(per_attr=[[numeric_repo.samples[0].attrs[x]] for x in range(3)])
    tuples = [
        make_tuple(f"r{i}", 0, 1, ts(a), ts(b), None)
        for i, (a, b) in enumerate([("a1", "0.3"), ("a1", "0.2"), ("a1", "0.5"), ("a2", "0.7"), ("a2", "0.0")])
    ]
    counted, _ = check_indexed_pooling(
        numeric_repo, tuples, [cdd1(), cdd2()], pivots, frozenset({"a1"}), absdiff
    )
    assert counted >= 3


def test_indexed_pooling_equals_a_brute_force_count_under_jaccard():
    repo, trace = make_workload(seed=21, length=25, repo_size=50, xi=0.5, m=1)
    dist = DistanceFn()
    counted, near = check_indexed_pooling(
        repo, trace, detect_cdds(repo, dist), select_pivots(repo, dist=dist),
        frozenset({"topic0"}), dist,
    )
    assert counted > 0 and near > 0


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
