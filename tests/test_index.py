import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teride.cdd import CONST, INTERVAL, AttrConstraint, CddRule, detect_cdds, satisfies_determinants
from teride.engine import MODE_ENGINE, Engine
from teride.errors import ConfigError, NoRulesFound
from teride.impute import impute_tuple
from teride.index import (
    _build_lattice,
    build_cdd_index,
    build_dr_index,
    dr_query_box_for_rule,
)
from teride.metric import DistanceFn
from teride.model import Repository
from teride.pivot import PivotSet, select_pivots

from .conftest import make_tuple, make_workload, ts
from .test_acceptance import EQUIVALENCE_WORKLOADS, make_config, mine_rules


@pytest.fixture(scope="module")
def setup():
    repo, trace = make_workload(seed=21, length=25, repo_size=50, xi=0.5, m=1)
    dist = DistanceFn()
    pivots = select_pivots(repo, dist=dist)
    try:
        rules = detect_cdds(repo, dist)
    except NoRulesFound:
        rules = []
    assert rules, "workload must yield rules for index tests"
    return repo, trace, dist, pivots, rules


def _in_box(box, coords, i):
    """Whether sample i's coordinates (``coords[x][i]``) lie in the box, by the definition."""
    return all(lo - 1e-9 <= coords[x][i] <= hi + 1e-9 for x, (lo, hi) in box.items())


def _main_coords(repo, pivots, dist):
    return [[dist(s.attrs[x], pivots.main(x)) for s in repo.samples] for x in range(repo.d)]


class TestDrIndex:
    def test_range_query_equals_linear_scan(self, setup):
        repo, _, dist, pivots, _ = setup
        idx = build_dr_index(repo, pivots, dist)
        coords = _main_coords(repo, pivots, dist)
        rng = random.Random(4)
        for _ in range(50):
            box = {}
            for x in range(repo.d):
                if rng.random() < 0.7:
                    lo = rng.random()
                    box[x] = (max(0.0, lo - 0.2), min(1.0, lo + 0.2))
            want = [s for i, s in enumerate(repo.samples) if _in_box(box, coords, i)]
            assert idx.range_samples(box) == want

    def test_box_ends_on_and_beside_sample_coordinates(self, absdiff):
        """Under absdiff, with box ends exactly on sample coordinates and 1e-9
        and 2e-9 inside or outside them, the range query keeps the samples the
        definition keeps, in repository order; the empty box keeps them all."""
        rng = random.Random(5)
        rows = [
            make_tuple(f"s{i}", -1, 0, *(ts(f"{rng.randrange(100) / 100}") for _ in range(2)))
            for i in range(60)
        ]
        repo = Repository(rows)
        pivots = select_pivots(repo, dist=absdiff)
        idx = build_dr_index(repo, pivots, absdiff)
        coords = _main_coords(repo, pivots, absdiff)
        assert idx.range_samples({}) == repo.samples
        dropped = 0
        for _ in range(40):
            x = rng.randrange(2)
            a, b = sorted(rng.sample(sorted(set(coords[x])), 2))
            other = {} if rng.random() < 0.5 else {1 - x: (0.0, rng.choice(coords[1 - x]))}
            for shift in (-2e-9, -1e-9, 0.0, 1e-9, 2e-9):
                box = {x: (a + shift, b - shift), **other}
                got = idx.range_samples(box)
                assert got == [s for i, s in enumerate(repo.samples) if _in_box(box, coords, i)]
                on_ends = [i for i in range(len(rows)) if coords[x][i] in (a, b) and _in_box(other, coords, i)]
                if shift <= 0.0:
                    assert {id(repo.samples[i]) for i in on_ends} <= set(map(id, got))
                elif shift == 2e-9:
                    assert not {id(repo.samples[i]) for i in on_ends} & set(map(id, got))
                    dropped += len(on_ends)
        assert dropped > 0


def _linear_filter(rules, r):
    """The rules r could satisfy, by the definition: applicable, and equal to every constant."""
    return [
        rule for rule in rules
        if rule.applicable_to(r)
        and all(c.kind != CONST or r.attrs[c.attr] == c.value for c in rule.determinants)
    ]


def _check_candidate_rules(rules, tuples) -> list:
    """Index the rules per dependent and check, for each tuple and each missing
    attribute with rules, that ``candidate_rules`` gives the linear filter's
    rules, each once; returns the (tuple, rules) pairs it checked."""
    by_dep = {}
    for rule in rules:
        by_dep.setdefault(rule.dependent, []).append(rule)
    indexes = {j: build_cdd_index(rs) for j, rs in by_dep.items()}
    checked = []
    for r in tuples:
        for j in r.missing_attrs():
            if j in indexes:
                got = indexes[j].candidate_rules(r)
                assert len(set(map(id, got))) == len(got), r
                assert set(map(id, got)) == set(map(id, _linear_filter(by_dep[j], r))), r
                checked.append((r, got))
    return checked


def _const(x, value):
    return AttrConstraint(attr=x, kind=CONST, value=value)


class TestCddIndex:
    def test_candidate_rules_match_linear_filter(self, setup):
        repo, trace, _, _, rules = setup
        assert _check_candidate_rules(rules, trace)
        # hand-built rules on dependent 2 over attributes 0 and 1: constants
        # are two repository values per attribute, and a third value equals
        # none of them
        v0s, v1s = (sorted(repo.domain(x), key=sorted)[:3] for x in (0, 1))

        def rule(*dets):
            return CddRule(determinants=dets, dependent=2, dep_lo=0.0, dep_hi=0.1)

        built = [rule(_interval(0, 0.0, 0.5), _interval(1, 0.2, 1.0)), rule(_interval(1, 0.0, 1.0))]
        for v0, v1 in itertools.product(v0s[:2], v1s[:2]):
            built += [
                rule(_const(0, v0), _const(1, v1)),
                rule(_const(1, v1), _const(0, v0)),
                rule(_const(0, v0), _interval(1, 0.0, 0.5)),
                rule(_interval(1, 0.1, 0.5), _const(0, v0)),
                rule(_interval(0, 0.0, 0.5), _const(1, v1)),
                rule(_const(0, v0)),
            ]
        # listing a rule's determinants in another order gives the same shape
        assert len(build_cdd_index(built).shapes) == 6
        # queries that hold both determinant attributes, or lack attribute 1
        queries = [make_tuple("q", 0, 1, v0, v1, None) for v0, v1 in itertools.product(v0s, (*v1s, None))]
        checked = _check_candidate_rules(built, queries)
        assert any(
            len(found.determinants) == 2 and all(c.kind == CONST for c in found.determinants)
            for _, got in checked for found in got
        )
        assert any(got for q, got in checked if q.attrs[1] is None)

    def test_candidate_rules_rejects_a_tuple_holding_the_dependent(self, setup):
        _, trace, _, _, rules = setup
        dep = rules[0].dependent
        idx = build_cdd_index([r for r in rules if r.dependent == dep])
        r = next(r for r in trace if r.attrs[dep] is not None)
        with pytest.raises(ConfigError, match="is not missing attribute"):
            idx.candidate_rules(r)

    def test_group_cover(self, setup):
        _, _, _, _, rules = setup
        dep = rules[0].dependent
        idx = build_cdd_index([r for r in rules if r.dependent == dep])
        # greedy superset cover of the determinant sets, largest first
        groups = []
        for ds in sorted({r.det_attrs for r in rules if r.dependent == dep}, key=lambda s: (-len(s), sorted(s))):
            if not any(ds <= g for g in groups):
                groups.append(ds)
        assert "lattice" not in vars(idx)
        assert idx.lattice == _build_lattice(groups)
        assert idx.lattice[0] == sorted(groups, key=lambda s: (len(s), sorted(s)))
        assert idx.lattice[-1] == [frozenset().union(*groups)]

    def test_engine_at_d10_builds_without_the_lattice(self):
        # a lattice built with the index would enumerate 2^g combinations of
        # g groups, about 36 per dependent here
        repo, _ = make_workload(seed=7, d=10, length=100, repo_size=100)
        t0 = time.perf_counter()
        engine = Engine(repo, make_config(d=10, window=30), mode=MODE_ENGINE)
        assert time.perf_counter() - t0 < 60
        indexes = engine.fetch.cdd_indexes.values()
        assert not any("lattice" in vars(idx) for idx in indexes)

    def test_mixed_dependents_rejected(self, setup):
        _, _, _, _, rules = setup
        deps = {r.dependent for r in rules}
        if len(deps) > 1:
            with pytest.raises(ConfigError):
                build_cdd_index(rules)

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            build_cdd_index([])


class TestQueryBox:
    def test_box_is_built_on_the_main_coordinate(self, numeric_repo, absdiff):
        pivots = select_pivots(numeric_repo, dist=absdiff)
        r = make_tuple("q", 0, 1, ts("a1"), ts("0.3"), None)
        cx = absdiff(ts("0.3"), pivots.main(1))
        for c, want in (
            (AttrConstraint(attr=1, kind=CONST, value=ts("0.3")), (cx, cx)),
            (_interval(1, 0.0, 0.15), (max(0.0, cx - 0.15), min(1.0, cx + 0.15))),
        ):
            rule = CddRule(determinants=(c,), dependent=2, dep_lo=0.0, dep_hi=0.1)
            assert dr_query_box_for_rule(rule, r, pivots, absdiff) == {1: want}

    def test_box_contains_every_satisfying_sample(self, setup):
        repo, trace, dist, pivots, rules = setup
        from teride.cdd import satisfies_determinants

        idx = build_dr_index(repo, pivots, dist)
        checked = 0
        for r in trace:
            for rule in rules:
                if not rule.applicable_to(r):
                    continue
                box = dr_query_box_for_rule(rule, r, pivots, dist)
                hits = {s.rid for s in idx.range_samples(box)}
                for s in repo.samples:
                    if satisfies_determinants(rule, r, s, dist):
                        assert s.rid in hits
                        checked += 1
        assert checked > 0


def _rule_samples(idx, rule, r, pivots, dist):
    return idx.samples_per_rule((rule,), r, pivots, dist)[rule]


def _satisfying(rule, r, samples, dist):
    return {s.rid for s in samples if satisfies_determinants(rule, r, s, dist)}


def _interval(x, lo, hi, min_open=False):
    return AttrConstraint(attr=x, kind=INTERVAL, lo=lo, hi=hi, min_open=min_open)


def _hand_built_rules(r, j):
    """Rules on dependent j over r's first two other attributes, one per way a
    determinant can (or cannot) restrict the samples."""
    x0, x1 = [x for x in range(r.d) if x != j][:2]
    const = AttrConstraint(attr=x0, kind=CONST, value=r.attrs[x0])
    determinants = {
        "const": (const,),
        "bucket-9": (_interval(x0, 0.9, 1.0),),
        "hi-within-tol-of-1": (_interval(x0, 0.0, 1 - 5e-10),),
        "min-open": (_interval(x0, 0.2, 0.8, min_open=True),),
        "min-open-to-1": (_interval(x0, 0.3, 1.0, min_open=True),),
        "mixed": (_interval(x0, 0.0, 0.8), _interval(x1, 0.9, 1.0)),
        "const-and-interval": (const, _interval(x1, 0.0, 0.7)),
    }
    return x0, {
        name: CddRule(determinants=dets, dependent=j, dep_lo=0.0, dep_hi=0.1)
        for name, dets in determinants.items()
    }


class TestRuleSamples:
    """samples_per_rule() may skip only samples that cannot satisfy the determinants."""

    def test_mined_rules_keep_every_satisfying_sample(self, setup):
        repo, trace, dist, pivots, rules = setup
        idx = build_dr_index(repo, pivots, dist)
        checked = supported = 0
        for r in trace:
            for rule in rules:
                if not rule.applicable_to(r):
                    continue
                got = _rule_samples(idx, rule, r, pivots, dist)
                want = _satisfying(rule, r, repo.samples, dist)
                assert _satisfying(rule, r, got, dist) == want
                checked += 1
                supported += bool(want)
        assert checked > 0 and supported > 0

    def test_hand_built_rules_keep_every_satisfying_sample(self, setup):
        repo, trace, dist, pivots, _ = setup
        idx = build_dr_index(repo, pivots, dist)
        hits: dict = {}  # rule name -> satisfying samples over the trace
        disjoint_at_tol = 0  # samples sharing no token that the near-1 bound admits
        for r in trace:
            if len(r.missing_attrs()) != 1:
                continue
            x0, rules = _hand_built_rules(r, r.missing_attrs()[0])
            for name, rule in rules.items():
                want = _satisfying(rule, r, repo.samples, dist)
                assert _satisfying(rule, r, _rule_samples(idx, rule, r, pivots, dist), dist) == want
                hits[name] = hits.get(name, 0) + len(want)
                if name == "hi-within-tol-of-1":
                    disjoint_at_tol += sum(
                        s.rid in want and s.attrs[x0].isdisjoint(r.attrs[x0]) for s in repo.samples
                    )
        assert len(hits) == 7 and all(hits.values()), hits
        assert disjoint_at_tol > 0

    def test_rule_without_restricting_determinant_uses_the_box(self, setup):
        repo, trace, dist, pivots, _ = setup
        idx = build_dr_index(repo, pivots, dist)
        position = {id(s): i for i, s in enumerate(repo.samples)}
        r = next(r for r in trace if len(r.missing_attrs()) == 1)
        _, rules = _hand_built_rules(r, r.missing_attrs()[0])
        for name in ("bucket-9", "hi-within-tol-of-1", "min-open-to-1"):
            rule = rules[name]
            box = dr_query_box_for_rule(rule, r, pivots, dist)
            got = _rule_samples(idx, rule, r, pivots, dist)
            assert got == idx.range_samples(box)
            # samples_per_rule promises repository order
            positions = [position[id(s)] for s in got]
            assert positions and positions == sorted(positions)

    def test_absdiff_does_not_filter_by_token(self, numeric_repo, absdiff):
        pivots = select_pivots(numeric_repo, dist=absdiff)
        idx = build_dr_index(numeric_repo, pivots, absdiff)
        r = make_tuple("q", 0, 1, ts("a1"), ts("0.2"), None)
        const = AttrConstraint(attr=0, kind=CONST, value=ts("a1"))
        for dets, want in (
            ((_interval(1, 0.0, 0.3),), {"s1", "s2", "s3"}),
            ((const, _interval(1, 0.0, 0.15)), {"s1", "s2"}),
        ):
            rule = CddRule(determinants=dets, dependent=2, dep_lo=0.0, dep_hi=0.1)
            assert _satisfying(rule, r, numeric_repo.samples, absdiff) == want
            got = _rule_samples(idx, rule, r, pivots, absdiff)
            assert _satisfying(rule, r, got, absdiff) == want


# Both filters against the scans they replace: served samples must hold every
# sample that satisfies a rule, near values every value the dependent interval
# admits, and imputation through them must equal the scan bit for bit.

# numeric singletons are numbers under absdiff and plain tokens under Jaccard
_VOCAB = ("a", "b", "c", "d", "e", "0", "0.2", "0.25", "0.5", "1")
_values = st.frozensets(st.sampled_from(_VOCAB), min_size=1, max_size=5)
# k/m is a Jaccard similarity and 1 - k/m a distance that can sit exactly on
# an endpoint; 1 - 1e-9 is the widest upper end that still rejects 1.0
_fractions = st.integers(1, 6).flatmap(lambda m: st.integers(0, m).map(lambda k: k / m))
_upper_ends = st.one_of(_fractions, _fractions.map(lambda f: 1.0 - f), st.just(1.0 - 1e-9))


@st.composite
def _intervals(draw, x):
    hi = draw(_upper_ends)
    lo = draw(st.sampled_from([0.0, hi / 2, hi]))
    return AttrConstraint(attr=x, kind=INTERVAL, lo=lo, hi=hi, min_open=draw(st.booleans()))


@st.composite
def _rules(draw, r, repo_values):
    shape = draw(st.sampled_from(["interval", "two-intervals", "const-and-interval"]))
    if shape == "interval":
        dets = (draw(_intervals(0)),)
    elif shape == "two-intervals":
        dets = (draw(_intervals(0)), draw(_intervals(1)))
    else:
        value = draw(st.sampled_from([r.attrs[0], *repo_values]))
        dets = (AttrConstraint(attr=0, kind=CONST, value=value), draw(_intervals(1)))
    dep_hi = draw(_upper_ends)
    dep_lo = draw(st.sampled_from([0.0, dep_hi]))
    return CddRule(determinants=dets, dependent=2, dep_lo=dep_lo, dep_hi=dep_hi)


@st.composite
def _retrieval_cases(draw):
    rows = draw(st.lists(st.tuples(_values, _values, _values), min_size=1, max_size=12))
    repo = Repository([make_tuple(f"s{i}", -1, 0, *row) for i, row in enumerate(rows)])
    r = make_tuple("q", 0, 1, draw(_values), draw(_values), None)
    rules = draw(st.lists(_rules(r, [row[0] for row in rows]), min_size=1, max_size=4))
    return repo, r, rules, DistanceFn(draw(st.sampled_from([DistanceFn.JACCARD, DistanceFn.ABSDIFF])))


@settings(max_examples=300, deadline=None)
@given(case=_retrieval_cases())
def test_prefix_filters_keep_every_admitted_sample_and_value(case):
    repo, r, rules, dist = case
    pivots = PivotSet(per_attr=[[repo.samples[0].attrs[x]] for x in range(3)])
    idx = build_dr_index(repo, pivots, dist)
    served = idx.samples_per_rule(rules, r, pivots, dist)
    for rule in rules:
        assert _satisfying(rule, r, repo.samples, dist) <= {s.rid for s in served[rule]}
        assert _rule_samples(idx, rule, r, pivots, dist) == served[rule]
        if dist.kind == DistanceFn.JACCARD and not rule.dep_admits(1.0):
            domain = repo.domain(2)
            for sv in domain:
                admitted = {v for v in domain if rule.dep_admits(dist(sv, v))}
                assert admitted <= idx.near_values(2, sv, rule.dep_hi)
    by_dep = {2: rules}
    indexed = impute_tuple(r, by_dep, repo, dist, samples_per_rule=served, dr_index=idx)
    assert indexed == impute_tuple(r, by_dep, repo, dist)


def test_indexed_imputation_equals_the_scan_on_acceptance_workloads():
    checked = 0
    for seed, n, d, window, xi, m in EQUIVALENCE_WORKLOADS:
        repo, trace = make_workload(
            seed=seed, n_streams=n, d=d, length=25, vocab=50, topics=3, xi=xi, m=m, repo_size=30,
        )
        dist = DistanceFn()
        engine = Engine(repo, make_config(d=d, window=window), dist, mode=MODE_ENGINE,
                        rules=mine_rules(repo, dist))
        for r in trace:
            if r.is_complete():
                continue
            rules_by_dep, served = engine.fetch.select(r)
            got = impute_tuple(r, rules_by_dep, repo, dist, served, engine.fetch.dr_index)
            want = impute_tuple(r, engine.pre.rules_by_dep, repo, dist)
            # == on the (value, prob) lists compares the floats bit for bit
            assert got.per_attr_candidates == want.per_attr_candidates, (seed, r.rid)
            assert got.fallback_attrs == want.fallback_attrs
            checked += len(want.per_attr_candidates) - len(want.fallback_attrs)
    assert checked > 0
