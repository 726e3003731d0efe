from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teride.cdd import detect_cdds, satisfies_determinants
from teride.engine import MODE_ENGINE, MODE_NOINDEX, Engine
from teride.errors import ImputationFailed
from teride.impute import (
    FALLBACK_TOP_K,
    ImputedTuple,
    fallback_candidates,
    impute_multi_rule,
    impute_tuple,
    shared_fallback,
)
from teride.index import build_dr_index, scan_hits, scan_reach, select_samples
from teride.metric import DistanceFn
from teride.model import QueryConfig, Repository, token_key
from teride.pivot import PivotSet, select_pivots

from .conftest import enumerate_instances, make_tuple, make_workload, ts
from .test_cdd import cdd1, cdd2


@pytest.fixture
def incomplete_r():
    return make_tuple("r", 0, 1, ts("a1"), ts("0.3"), None)


def pool(r, rules, repo, dist):
    """impute_multi_rule over the rules on r's one missing attribute, each
    counting the samples that the scan selects for it."""
    (j,) = r.missing
    reach = scan_reach(repo, dist)
    by_dep, samples_per_rule = select_samples({j: rules}, r, scan_hits(repo.samples, reach), repo.samples)
    return impute_multi_rule(by_dep[j], samples_per_rule, reach)


class TestSingleRule:
    """One rule is the one-rule case of the pooled count."""

    def test_reference_distribution(self, numeric_repo, absdiff, incomplete_r):
        satisfying = numeric_repo.samples[:2]
        cands = impute_multi_rule([cdd1()], {cdd1(): satisfying}, scan_reach(numeric_repo, absdiff))
        assert dict(cands) == {ts("0.1"): 0.5, ts("0.2"): 0.5}
        assert pool(incomplete_r, [cdd1()], numeric_repo, absdiff) == cands

    def test_second_rule_distribution(self, numeric_repo, absdiff, incomplete_r):
        cands = pool(incomplete_r, [cdd2()], numeric_repo, absdiff)
        assert dict(cands) == {ts("0.2"): 0.5, ts("0.35"): 0.5}

    def test_no_supporting_sample_counts_nothing(self, numeric_repo, absdiff):
        r = make_tuple("r", 0, 1, ts("a2"), ts("0.0"), None)
        assert pool(r, [cdd1()], numeric_repo, absdiff) == []


class TestMultiRule:
    def test_reference_pooling(self, numeric_repo, absdiff, incomplete_r):
        cands = dict(pool(incomplete_r, [cdd1(), cdd2()], numeric_repo, absdiff))
        assert cands[ts("0.1")] == pytest.approx(2 / 6, abs=1e-9)
        assert cands[ts("0.2")] == pytest.approx(3 / 6, abs=1e-9)
        assert cands[ts("0.35")] == pytest.approx(1 / 6, abs=1e-9)

    def test_rule_served_no_sample_adds_nothing(self, numeric_repo, absdiff):
        # no sample's B lies 0.15-0.2 from 0.2 beside an A of a1, so cdd2 is not selected
        r = make_tuple("r", 0, 1, ts("a1"), ts("0.2"), None)
        hits = scan_hits(numeric_repo.samples, scan_reach(numeric_repo, absdiff))
        by_dep, served = select_samples({2: [cdd1(), cdd2()]}, r, hits, numeric_repo.samples)
        assert by_dep == {2: [cdd1()]} and served == {cdd1(): numeric_repo.samples[:2]}
        assert pool(r, [cdd1(), cdd2()], numeric_repo, absdiff) == pool(r, [cdd1()], numeric_repo, absdiff)

    def test_all_rules_unsupported_count_nothing(self, numeric_repo, absdiff):
        r = make_tuple("r", 0, 1, ts("a2"), ts("0.0"), None)
        assert pool(r, [cdd1(), cdd2()], numeric_repo, absdiff) == []


def brute_force_pool(r, rules, repo, dist):
    """(value, prob) pairs from counting every (rule, repository sample, domain
    value) triple whose sample satisfies the rule's determinants and whose
    value the rule's dependent interval admits; [] when nothing counts."""
    counts = Counter()
    for rule in rules:
        j = rule.dependent
        for s in repo.samples:
            for val in repo.domain(j):
                if satisfies_determinants(rule, r, s, dist) and rule.dep_admits(dist(s.attrs[j], val)):
                    counts[val] += 1
    total = sum(counts.values())
    return sorted(((v, c / total) for v, c in counts.items()), key=lambda vp: (-vp[1], token_key(vp[0])))


def check_indexed_pooling(repo, tuples, rules, pivots, dist) -> tuple:
    """Check impute_multi_rule, fed the DR-index's retrieval per tuple and
    attribute and the index's ``reach``, against :func:`brute_force_pool`
    bit for bit; return how many (tuple, attribute) pools counted something
    and how many of those reached a dependent interval that rejects 1.0, the
    one ``reach`` resolves from postings."""
    idx = build_dr_index(repo, pivots, dist)
    reads = []  # the arguments of each reach call on an interval that rejects 1.0

    def reach(attr, v, lo, hi):
        if hi + 1e-9 < 1.0:
            reads.append((attr, v, lo, hi))
        return idx.reach(attr, v, lo, hi)

    counted = near = 0
    for r in tuples:
        for j in r.missing:
            applicable = [rule for rule in rules if rule.dependent == j and rule.applicable_to(r)]
            by_dep, served = select_samples({j: applicable}, r, idx.hits, idx.samples)
            want = brute_force_pool(r, applicable, repo, dist)
            before = len(reads)
            # == on the (value, prob) lists compares the floats bit for bit
            assert impute_multi_rule(by_dep[j], served, reach) == want, r.rid
            if not want:
                continue
            counted += 1
            near += len(reads) > before
    return counted, near


def test_indexed_pooling_equals_a_brute_force_count_under_absdiff(numeric_repo, absdiff):
    pivots = PivotSet(per_attr=[[numeric_repo.samples[0].attrs[x]] for x in range(3)])
    tuples = [
        make_tuple(f"r{i}", 0, 1, ts(a), ts(b), None)
        for i, (a, b) in enumerate([("a1", "0.3"), ("a1", "0.2"), ("a1", "0.5"), ("a2", "0.7"), ("a2", "0.0")])
    ]
    counted, near = check_indexed_pooling(numeric_repo, tuples, [cdd1(), cdd2()], pivots, absdiff)
    assert counted >= 3 and near > 0


def test_indexed_pooling_equals_a_brute_force_count_under_jaccard():
    repo, trace = make_workload(seed=21, length=25, repo_size=50, xi=0.5, m=1)
    dist = DistanceFn()
    counted, near = check_indexed_pooling(
        repo, trace, detect_cdds(repo, dist), select_pivots(repo, dist=dist), dist
    )
    assert counted > 0 and near > 0


class TestFallback:
    def test_uniform_over_top_values(self, numeric_repo):
        cands = fallback_candidates(numeric_repo, 0)
        assert [v for v, _ in cands] == [ts("a1"), ts("a2")]
        assert all(p == pytest.approx(0.5) for _, p in cands)

    def test_top_values_come_in_token_order(self):
        # by count c, b, then a, d and e tie; f is the least frequent, so it is left out
        repo = Repository([make_tuple(f"s{i}", -1, 0, ts(v)) for i, v in enumerate("ccccbbbaaddeef")])
        assert [v for v, _ in fallback_candidates(repo, 0)] == [ts(v) for v in "abcde"]

    @pytest.mark.parametrize("kind", [DistanceFn.JACCARD, DistanceFn.ABSDIFF])
    @pytest.mark.parametrize("seed", [32, 33])
    def test_candidate_lists_are_in_options_order(self, kind, seed):
        repo, trace = make_workload(seed=seed, d=4, length=30, repo_size=40, xi=0.5, m=2)
        dist = DistanceFn(kind)
        by_dep = {}
        for rule in detect_cdds(repo, dist):
            by_dep.setdefault(rule.dependent, []).append(rule)
        imputed = [impute_tuple(r, by_dep, repo, dist) for r in trace]
        # both kinds of list occur, fallback ones over top values not in token order
        assert any(set(it.per_attr_candidates) - it.fallback_attrs for it in imputed)
        counts = [Counter(s.attrs[j] for s in repo.samples) for j in range(repo.d)]
        by_count = [sorted(c, key=lambda v, c=c: (-c[v], token_key(v))) for c in counts]
        tops = [top[:FALLBACK_TOP_K] for top in by_count]
        assert any(
            tops[j] != sorted(tops[j], key=token_key) for it in imputed for j in it.fallback_attrs
        )
        for it in imputed:
            for j in it.base.missing:
                assert it.per_attr_candidates[j] == it.options[j], (it.rid, j)


class TestImputedTuple:
    def test_complete_tuple_single_instance(self):
        r = make_tuple("r", 0, 1, ts("a"), ts("b"))
        it = ImputedTuple(base=r)
        assert it.options == [[(ts("a"), 1.0)], [(ts("b"), 1.0)]]
        assert it.instance_count() == 1

    def test_candidates_must_cover_missing(self):
        r = make_tuple("r", 0, 1, ts("a"), None)
        with pytest.raises(ImputationFailed):
            ImputedTuple(base=r)

    def test_probs_must_sum_to_one(self):
        r = make_tuple("r", 0, 1, ts("a"), None)
        with pytest.raises(ImputationFailed):
            ImputedTuple(base=r, per_attr_candidates={1: [(ts("x"), 0.4)]})

    @pytest.mark.parametrize(
        "cands",
        [
            [(ts("x"), float("nan"))],
            [(ts("x"), 0.5), (ts("y"), float("nan"))],
            [(ts("x"), 1.5), (ts("y"), -0.5)],
            [(ts("x"), 1.0), (ts("y"), 0.0)],
            [(ts("x"), float("inf")), (ts("y"), float("-inf"))],
        ],
    )
    def test_probs_must_lie_in_zero_one(self, cands):
        # each list above sums to 1 or to NaN; every one holds a probability
        # outside (0, 1]
        r = make_tuple("r", 0, 1, ts("a"), None)
        with pytest.raises(ImputationFailed):
            ImputedTuple(base=r, per_attr_candidates={1: cands})

    def test_instances_descending_and_normalized(self):
        r = make_tuple("r", 0, 1, None, None)
        it = ImputedTuple(
            base=r,
            per_attr_candidates={
                0: [(ts("x"), 0.7), (ts("y"), 0.3)],
                1: [(ts("u"), 0.6), (ts("v"), 0.4)],
            },
        )
        assert it.options == [[(ts("x"), 0.7), (ts("y"), 0.3)], [(ts("u"), 0.6), (ts("v"), 0.4)]]
        inst = enumerate_instances(it)
        assert len(inst) == it.instance_count() == 4
        probs = [p for _, p in inst]
        assert probs == sorted(probs, reverse=True)
        assert sum(probs) == pytest.approx(1.0, abs=1e-9)
        assert probs[0] == pytest.approx(0.42)
        for t, _ in inst:
            assert t.is_complete()


class TestCheckedWhereInputEnters:
    """A tuple built through the constructor is checked once; one that
    ``impute_tuple`` hands its options is not checked again."""

    @pytest.fixture
    def checked(self, monkeypatch):
        """Every tuple ``ImputedTuple._check`` is called on, in call order."""
        calls = []
        check = ImputedTuple._check

        def counted(it):
            calls.append(it)
            check(it)

        monkeypatch.setattr(ImputedTuple, "_check", counted)
        return calls

    def test_a_constructed_tuple_is_checked_once(self, checked):
        complete = ImputedTuple(base=make_tuple("c", 0, 1, ts("a"), ts("b")))
        holed = ImputedTuple(
            base=make_tuple("r", 0, 1, ts("a"), None),
            per_attr_candidates={1: [(ts("x"), 0.6), (ts("y"), 0.4)]},
        )
        for it in (complete, holed):
            it.options, it.token_unions(), it.instance_count()
        assert len(checked) == 2 and checked[0] is complete and checked[1] is holed

    @pytest.mark.parametrize("kind", [DistanceFn.JACCARD, DistanceFn.ABSDIFF])
    def test_an_engine_run_checks_only_the_complete_arrivals(self, kind, checked, monkeypatch):
        import teride.engine

        repo, trace = make_workload(seed=65, d=4, length=30, repo_size=40, xi=0.6, m=2)
        config = QueryConfig(keywords=frozenset({"topic0"}), d=4, rho=0.6, alpha=0.2, window_size=7)
        imputed = []

        def recorded(*args):
            imputed.append(impute_tuple(*args))
            return imputed[-1]

        monkeypatch.setattr(teride.engine, "impute_tuple", recorded)
        Engine(repo, config, dist=DistanceFn(kind), mode=MODE_ENGINE).run(list(trace))
        # rule-served and fallback attributes both occur
        assert any(set(it.per_attr_candidates) - it.fallback_attrs for it in imputed)
        assert any(it.fallback_attrs for it in imputed)
        imputed_ids = {id(it) for it in imputed}
        assert not any(id(it) in imputed_ids for it in checked)
        # the step builds each complete arrival's tuple itself, checked once
        assert sorted(it.rid for it in checked) == sorted(r.rid for r in trace if r.is_complete())
        assert len(checked) + len(imputed) == len(trace)


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
        assert all(sum(p for _, p in opts) == pytest.approx(1.0, abs=1e-9) for opts in it.options)


class TestSharedImputation:
    """``impute_tuple`` hands each tuple its options and token unions, and every
    tuple that falls back on an attribute shares that attribute's one fallback."""

    @pytest.mark.parametrize("kind", [DistanceFn.JACCARD, DistanceFn.ABSDIFF])
    @pytest.mark.parametrize("mode", [MODE_ENGINE, MODE_NOINDEX])
    def test_a_run_imputes_as_fresh_tuples_and_leaves_fallbacks_unchanged(self, kind, mode, monkeypatch):
        import teride.engine

        repo, trace = make_workload(seed=65, d=4, length=30, repo_size=40, xi=0.6, m=2)
        config = QueryConfig(keywords=frozenset({"topic0"}), d=4, rho=0.6, alpha=0.2, window_size=7)
        imputed = []

        def recorded(*args):
            imputed.append(impute_tuple(*args))
            return imputed[-1]

        monkeypatch.setattr(teride.engine, "impute_tuple", recorded)
        engine = Engine(repo, config, dist=DistanceFn(kind), mode=mode)
        engine.run(list(trace))
        assert engine.stage_counts["refined"]
        # both rule-served and fallback attributes occur
        assert any(set(it.per_attr_candidates) - it.fallback_attrs for it in imputed)
        assert any(it.fallback_attrs for it in imputed)
        for it in imputed:
            fresh = ImputedTuple(it.base, dict(it.per_attr_candidates), it.fallback_attrs)
            assert it.options == fresh.options, it.rid
            assert it.token_unions() == fresh.token_unions(), it.rid
            for j in it.fallback_attrs:
                cands, union = shared_fallback(repo, j)
                assert it.per_attr_candidates[j] is cands and it.options[j] is cands, (it.rid, j)
                assert it.token_unions()[j] is union, (it.rid, j)
        for j in {j for it in imputed for j in it.fallback_attrs}:
            cands, union = shared_fallback(repo, j)
            assert cands == fallback_candidates(repo, j)
            assert union == frozenset().union(*(v for v, _ in cands))

    def test_one_fallback_per_repository_and_attribute(self, numeric_repo, absdiff):
        r = make_tuple("r", 0, 1, ts("a1"), None, None)
        a, b = (impute_tuple(r, {}, numeric_repo, absdiff) for _ in range(2))
        assert a.fallback_attrs == b.fallback_attrs == frozenset({1, 2})
        for j in (1, 2):
            assert a.per_attr_candidates[j] is b.per_attr_candidates[j]
            assert a.token_unions()[j] is b.token_unions()[j]
        other = Repository(list(numeric_repo.samples))
        assert shared_fallback(other, 1) is not shared_fallback(numeric_repo, 1)
        assert shared_fallback(other, 1) == shared_fallback(numeric_repo, 1)


def reference_enumeration(it):
    """(options, instances) by brute force: per attribute its (value, prob)
    options, the present value at probability 1 or the candidates by
    descending probability with ties broken by token order; and every instance
    (``enumerate_instances``)."""
    options = [
        [(v, 1.0)]
        if v is not None
        else sorted(it.per_attr_candidates[j], key=lambda vp: (-vp[1], token_key(vp[0])))
        for j, v in enumerate(it.base.attrs)
    ]
    return options, enumerate_instances(it)


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
    options, instances = reference_enumeration(it)
    assert it.options == options
    assert it.instance_count() == len(instances)


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
