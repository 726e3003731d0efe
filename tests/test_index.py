import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teride.cdd import CONST, INTERVAL, AttrConstraint, CddRule, detect_cdds, satisfies_determinants
from teride.engine import MODE_ENGINE, MODE_NOINDEX, Engine
from teride.errors import ConfigError, NoRulesFound
from teride.impute import impute_tuple
from teride.index import (
    _build_lattice,
    build_cdd_index,
    build_dr_index,
    dr_query_box_for_rule,
    equality_only,
    scan_hits,
    scan_reach,
    select_samples,
)
from teride.metric import DistanceFn, jaccard_dist
from teride.model import Repository
from teride.pivot import PivotSet, select_pivots

from .conftest import make_tuple, make_workload, ts
from .test_acceptance import EQUIVALENCE_WORKLOADS, make_config, mine_rules
from .test_prune import _CountingDistance


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
        for j in r.missing:
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


RESOLVERS = ("index", "scan")


def _resolver(kind, repo, dist):
    """The determinant resolver of ``engine`` ("index") or ``noindex`` ("scan")."""
    if kind == "scan":
        return scan_hits(repo.samples, scan_reach(repo, dist))
    pivots = PivotSet(per_attr=[[repo.samples[0].attrs[x]] for x in range(repo.d)])
    return build_dr_index(repo, pivots, dist).hits


def _rule_samples(hits, rule, r, samples):
    """The samples ``select_samples`` serves one rule for r, [] when it serves none."""
    _, served = select_samples({rule.dependent: [rule]}, r, hits, samples)
    return served.get(rule, [])


def _satisfying(rule, r, samples, dist):
    """The rids of the samples that satisfy the rule for r, in repository order."""
    return [s.rid for s in samples if satisfies_determinants(rule, r, s, dist)]


def _interval(x, lo, hi):
    return AttrConstraint(attr=x, kind=INTERVAL, lo=lo, hi=hi)


def _hand_built_rules(r, j):
    """Rules on dependent j over r's first two other attributes, one per way a
    determinant can (or cannot) restrict the samples."""
    x0, x1 = [x for x in range(r.d) if x != j][:2]
    const = AttrConstraint(attr=x0, kind=CONST, value=r.attrs[x0])
    determinants = {
        "const": (const,),
        "bucket-9": (_interval(x0, 0.9, 1.0),),
        "hi-within-tol-of-1": (_interval(x0, 0.0, 1 - 5e-10),),
        "mixed": (_interval(x0, 0.0, 0.8), _interval(x1, 0.9, 1.0)),
        "const-and-interval": (const, _interval(x1, 0.0, 0.7)),
    }
    return x0, {
        name: CddRule(determinants=dets, dependent=j, dep_lo=0.0, dep_hi=0.1)
        for name, dets in determinants.items()
    }


@pytest.mark.parametrize("kind", RESOLVERS)
class TestRuleSamples:
    """Both resolvers serve a rule exactly the samples that satisfy its
    determinants, in repository order."""

    def test_mined_rules_serve_exactly_the_satisfying_samples(self, setup, kind):
        repo, trace, dist, pivots, rules = setup
        hits = _resolver(kind, repo, dist)
        checked = supported = 0
        for r in trace:
            for rule in rules:
                if not rule.applicable_to(r):
                    continue
                want = _satisfying(rule, r, repo.samples, dist)
                assert [s.rid for s in _rule_samples(hits, rule, r, repo.samples)] == want
                checked += 1
                supported += bool(want)
        assert checked > 0 and supported > 0

    def test_hand_built_rules_serve_exactly_the_satisfying_samples(self, setup, kind):
        repo, trace, dist, pivots, _ = setup
        hits = _resolver(kind, repo, dist)
        found: dict = {}  # rule name -> satisfying samples over the trace
        disjoint_at_tol = 0  # samples sharing no token that the near-1 bound admits
        for r in trace:
            if len(r.missing) != 1:
                continue
            x0, rules = _hand_built_rules(r, r.missing[0])
            for name, rule in rules.items():
                want = _satisfying(rule, r, repo.samples, dist)
                assert [s.rid for s in _rule_samples(hits, rule, r, repo.samples)] == want, name
                found[name] = found.get(name, 0) + len(want)
                if name == "hi-within-tol-of-1":
                    disjoint_at_tol += sum(
                        s.rid in want and s.attrs[x0].isdisjoint(r.attrs[x0]) for s in repo.samples
                    )
        assert len(found) == 5 and all(found.values()), found
        assert disjoint_at_tol > 0

    def test_rule_without_restricting_determinant_reads_no_box(self, setup, kind, monkeypatch):
        """An interval that admits 1.0 has no posting to read; it is resolved
        by distances, never by the main-pivot box."""
        import teride.index

        def no_box(*args):
            raise AssertionError("the box query ran")

        monkeypatch.setattr(teride.index.DrIndex, "range_samples", no_box)
        monkeypatch.setattr(teride.index, "dr_query_box_for_rule", no_box)
        repo, trace, dist, pivots, _ = setup
        hits = _resolver(kind, repo, dist)
        r = next(r for r in trace if len(r.missing) == 1)
        _, rules = _hand_built_rules(r, r.missing[0])
        for name in ("bucket-9", "hi-within-tol-of-1"):
            want = _satisfying(rules[name], r, repo.samples, dist)
            assert want and [s.rid for s in _rule_samples(hits, rules[name], r, repo.samples)] == want

    def test_absdiff_number_interval_is_served_exactly(self, numeric_repo, absdiff, kind):
        """Under absdiff an interval on a finite number has no posting to read,
        alone or beside a constant, and is still served exactly."""
        hits = _resolver(kind, numeric_repo, absdiff)
        r = make_tuple("q", 0, 1, ts("a1"), ts("0.2"), None)
        const = AttrConstraint(attr=0, kind=CONST, value=ts("a1"))
        for dets, want in (
            ((_interval(1, 0.0, 0.3),), ["s1", "s2", "s3"]),
            ((const, _interval(1, 0.0, 0.15)), ["s1", "s2"]),
        ):
            rule = CddRule(determinants=dets, dependent=2, dep_lo=0.0, dep_hi=0.1)
            assert _satisfying(rule, r, numeric_repo.samples, absdiff) == want
            got = _rule_samples(hits, rule, r, numeric_repo.samples)
            assert [s.rid for s in got] == want


# Both filters against the scans they replace: served samples must be exactly
# the samples that satisfy a rule, reached values exactly the values the
# dependent interval admits, and imputation through them must equal the scan
# bit for bit.

# numeric singletons are numbers under absdiff and plain tokens under Jaccard
_VOCAB = ("a", "b", "c", "d", "e", "0", "0.2", "0.25", "0.5", "1")
_values = st.frozensets(st.sampled_from(_VOCAB), min_size=1, max_size=5)
# k/m is a Jaccard similarity and 1 - k/m a distance that can sit exactly on
# an endpoint; 1 - 1e-9 is the widest upper end that still rejects 1.0.
# 1/(n+1) is the nearest a set other than an n-token value can be, the
# equality bound, so ends are also drawn at it and just either side of it.
_fractions = st.integers(1, 6).flatmap(lambda m: st.integers(0, m).map(lambda k: k / m))
_near_bound = st.integers(1, 5).flatmap(
    lambda n: st.sampled_from([1 / (n + 1) + eps for eps in (0.0, -1e-9, -1e-7, 1e-9)])
)
_upper_ends = st.one_of(
    _fractions, _fractions.map(lambda f: 1.0 - f), st.just(1.0 - 1e-9), _near_bound
)


@st.composite
def _intervals(draw, x):
    hi = draw(_upper_ends)
    lo = draw(st.sampled_from([0.0, hi / 2, hi]))
    return AttrConstraint(attr=x, kind=INTERVAL, lo=lo, hi=hi)


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
    selection = select_samples({2: rules}, r, idx.hits, idx.samples)
    scan = scan_hits(repo.samples, scan_reach(repo, dist))
    assert selection == select_samples({2: rules}, r, scan, repo.samples)
    by_dep, served = selection
    for rule in rules:
        want = _satisfying(rule, r, repo.samples, dist)
        assert [s.rid for s in served.get(rule, [])] == want
        assert (rule in by_dep[2]) == bool(want)
        domain = repo.domain(2)
        for sv in domain:
            admitted = {v for v in domain if rule.dep_admits(dist(sv, v))}
            assert admitted == set(idx.reach(2, sv, rule.dep_lo, rule.dep_hi))
    indexed = impute_tuple(r, by_dep, repo, dist, samples_per_rule=served, reach=idx.reach)
    assert indexed == impute_tuple(r, {2: rules}, repo, dist)


# values absent from the repository are drawn as well as present ones, and
# under absdiff "nan" and "1e400" compare by equality alone
_reach_values = st.frozensets(st.sampled_from(_VOCAB + ("nan", "-0", "1e400")), min_size=1, max_size=4)


@st.composite
def _reach_cases(draw):
    domain = draw(st.lists(_reach_values, min_size=1, max_size=10))
    repo = Repository([make_tuple(f"s{i}", -1, 0, v) for i, v in enumerate(domain)])
    v = draw(st.one_of(st.sampled_from(domain), _reach_values))
    hi = draw(_upper_ends)  # 1.0 among them: an interval that admits 1.0
    lo = draw(st.sampled_from([0.0, hi / 2, hi]))
    return repo, v, lo, hi, DistanceFn(draw(st.sampled_from([DistanceFn.JACCARD, DistanceFn.ABSDIFF])))


@settings(max_examples=300, deadline=None)
@given(case=_reach_cases())
def test_reach_is_exact_in_every_mode(case):
    """``DrIndex.reach`` and ``scan_reach`` both give, each once, exactly the
    distinct repository values at a distance from v in [lo, hi], give or take
    1e-9: with lo above 0, on intervals that admit 1.0, and for a v the
    repository lacks."""
    repo, v, lo, hi, dist = case
    want = {u for u in repo.domain(0) if lo - 1e-9 <= dist(v, u) <= hi + 1e-9}
    pivots = PivotSet(per_attr=[[repo.samples[0].attrs[0]]])
    for reach in (build_dr_index(repo, pivots, dist).reach, scan_reach(repo, dist)):
        got = list(reach(0, v, lo, hi))
        assert len(got) == len(set(got)) and set(got) == want


class TestReachCounts:
    """Each interval costs one distance per distinct value at most."""

    # three distinct values of attribute 1 over six samples; attribute 2's
    # values are not numbers, so under absdiff each is only equal to itself
    ROWS = [
        ("a1", "0.1", ("x",)), ("a1", "0.1", ("x",)), ("a1", "0.2", ("y", "z")),
        ("a2", "0.5", ("x",)), ("a2", "0.1", ("y", "z")), ("a2", "0.2", ("x",)),
    ]

    def _engine(self, kind, mode, rule):
        rows = [make_tuple(f"s{i}", -1, 0, ts(a), ts(b), ts(*c)) for i, (a, b, c) in enumerate(self.ROWS)]
        repo, dist = Repository(rows), _CountingDistance(kind)
        pivots = PivotSet(per_attr=[[rows[0].attrs[x]] for x in range(3)])
        return Engine(repo, make_config(d=3, window=5), dist, mode=mode, rules=[rule], pivots=pivots), dist

    @pytest.mark.parametrize("kind", [DistanceFn.JACCARD, DistanceFn.ABSDIFF])
    def test_noindex_resolves_an_interval_by_distinct_value(self, kind):
        rule = CddRule(determinants=(_interval(1, 0.0, 0.1),), dependent=2, dep_lo=0.0, dep_hi=0.1)
        engine, dist = self._engine(kind, MODE_NOINDEX, rule)
        dist.calls = 0
        engine.fetch.select(make_tuple("q", 0, 1, ts("a1"), ts("0.15"), None))
        assert dist.calls == len(engine.pre.repo.domain(1)) == 3

    @pytest.mark.parametrize("kind", [DistanceFn.JACCARD, DistanceFn.ABSDIFF])
    def test_an_equality_only_dependent_interval_asks_no_distance(self, kind):
        const = AttrConstraint(attr=0, kind=CONST, value=ts("a1"))
        rule = CddRule(determinants=(const,), dependent=2, dep_lo=0.0, dep_hi=0.1)
        engine, dist = self._engine(kind, MODE_ENGINE, rule)
        r = make_tuple("q", 0, 1, ts("a1"), ts("0.15"), None)
        rules_by_dep, served = engine.fetch.select(r)
        assert len(served[rule]) == 3
        dist.calls = 0
        imputed = impute_tuple(r, rules_by_dep, engine.pre.repo, dist, served, engine.fetch.reach)
        assert dist.calls == 0
        assert imputed.per_attr_candidates[2] == [(ts("x"), 2 / 3), (ts("y", "z"), 1 / 3)]


# under absdiff a finite number is a number ("-0" included), and every other
# value ("nan", "inf", "1e400", a multi-token set) compares by equality alone
_ABSDIFF_VOCAB = ("0", "-0", "0.25", "0.5", "1", "nan", "inf", "1e400", "a")
_absdiff_values = st.frozensets(st.sampled_from(_ABSDIFF_VOCAB), min_size=1, max_size=2)
_absdiff_upper_ends = st.sampled_from([0.0, 0.25, 0.3, 0.5, 0.75, 1.0 - 1e-9, 1.0])


@st.composite
def _absdiff_cases(draw):
    rows = draw(st.lists(st.tuples(_absdiff_values, _absdiff_values), min_size=1, max_size=12))
    repo = Repository([make_tuple(f"s{i}", -1, 0, *row, ts("a")) for i, row in enumerate(rows)])
    r = make_tuple("q", 0, 1, draw(_absdiff_values), draw(_absdiff_values), None)
    rules = []
    for attrs in draw(st.lists(st.sampled_from([(0,), (1,), (0, 1)]), min_size=1, max_size=4)):
        dets = []
        for x in attrs:
            hi = draw(_absdiff_upper_ends)
            dets.append(_interval(x, draw(st.sampled_from([0.0, hi / 2, hi])), hi))
        rules.append(CddRule(determinants=tuple(dets), dependent=2, dep_lo=0.0, dep_hi=1.0))
    return repo, r, rules


@settings(max_examples=300, deadline=None)
@given(case=_absdiff_cases())
def test_absdiff_retrieval_equals_the_determinant_scan(case):
    """Under absdiff the index serves every rule exactly the samples that
    satisfy it, in repository order: from the value posting of a value that
    is not a finite number when the interval rejects 1.0, and by distance
    otherwise."""
    repo, r, rules = case
    dist = DistanceFn(DistanceFn.ABSDIFF)
    hits = _resolver("index", repo, dist)
    _, served = select_samples({2: rules}, r, hits, repo.samples)
    for rule in rules:
        assert [s.rid for s in served.get(rule, [])] == _satisfying(rule, r, repo.samples, dist)


@pytest.mark.parametrize("kind", RESOLVERS)
def test_absdiff_retrieval_on_special_values(kind):
    """"0" and "-0" are one number; "nan", "inf" and "1e400" are only equal to
    themselves; a multi-token set is only equal to itself.  Each value is
    served exactly its satisfying samples."""
    values = [("0",), ("-0",), ("0.5",), ("nan",), ("inf",), ("1e400",), ("0", "a"), ("nan",)]
    repo = Repository(
        [make_tuple(f"s{i}", -1, 0, ts(*v), ts("a"), ts("a")) for i, v in enumerate(values)]
    )
    dist = DistanceFn(DistanceFn.ABSDIFF)
    hits = _resolver(kind, repo, dist)
    for rv, hi, want in (
        (("-0",), 0.0, ["s0", "s1"]),
        (("0",), 0.5, ["s0", "s1", "s2"]),
        (("nan",), 0.5, ["s3", "s7"]),
        (("inf",), 0.0, ["s4"]),
        (("1e400",), 0.9, ["s5"]),
        (("0", "a"), 0.9, ["s6"]),
        (("a",), 0.9, []),
    ):
        r = make_tuple("q", 0, 1, ts(*rv), ts("a"), None)
        rule = CddRule(determinants=(_interval(0, 0.0, hi),), dependent=2, dep_lo=0.0, dep_hi=1.0)
        assert [s.rid for s in _rule_samples(hits, rule, r, repo.samples)] == want, rv
        assert want == _satisfying(rule, r, repo.samples, dist)


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
            got = impute_tuple(r, rules_by_dep, repo, dist, served, engine.fetch.reach)
            want = impute_tuple(r, engine.pre.rules_by_dep, repo, dist)
            # == on the (value, prob) lists compares the floats bit for bit
            assert got.per_attr_candidates == want.per_attr_candidates, (seed, r.rid)
            assert got.fallback_attrs == want.fallback_attrs
            checked += len(want.per_attr_candidates) - len(want.fallback_attrs)
    assert checked > 0


def test_no_other_token_set_is_nearer_than_the_equality_bound():
    """Over a 7-token vocabulary, every set s other than v is at least
    1/(|v| + 1) from v, and a superset with one extra token is that far; the
    floats may fall short of the bound only by rounding, far inside the 1e-6
    slack that ``equality_only`` keeps."""
    vocab = "abcdefg"
    sets = [
        frozenset(c) for k in range(1, len(vocab) + 1) for c in itertools.combinations(vocab, k)
    ]
    for v in sets:
        bound = 1 / (len(v) + 1)
        nearest = min(jaccard_dist(v, s) for s in sets if s != v)
        assert nearest >= bound - 1e-15
        for extra in set(vocab) - v:
            assert jaccard_dist(v, v | {extra}) == pytest.approx(bound, rel=0, abs=1e-15)
        # so an interval the bound leaves to equality admits no other set
        hi = bound - 2e-6
        assert equality_only(v, hi) and nearest > hi + 1e-9
        assert not equality_only(v, bound - 1e-7)


@pytest.mark.parametrize("kind", RESOLVERS)
def test_a_lacking_determinant_resolves_to_no_sample(setup, kind):
    """A determinant on an attribute the tuple lacks is never resolved and
    serves nothing, so its rule is not selected; after an empty determinant
    the rest of a rule is not resolved either."""
    repo, trace, dist, pivots, _ = setup
    resolve = _resolver(kind, repo, dist)
    asked = []

    def hits(c, rv):
        asked.append(c)
        return resolve(c, rv)

    r = next(r for r in trace if len(r.missing) == 1)
    j = r.missing[0]
    x0, y = [x for x in range(r.d) if x != j][:2]
    # within the bound but away from 0: it admits nothing, not even r's value
    hi = 0.5 / (len(r.attrs[x0]) + 1)
    empty = _interval(x0, hi, hi)
    assert equality_only(r.attrs[x0], hi) and not empty.admits(0.0)
    every = _interval(y, 0.0, 1.0)
    rule = CddRule(determinants=(empty, every), dependent=j, dep_lo=0.0, dep_hi=0.1)
    assert _rule_samples(hits, rule, r, repo.samples) == [] and asked == [empty]
    holey_attrs = (None if x == y else v for x, v in enumerate(r.attrs))
    holey = make_tuple("q", r.stream_id, r.arrival_time, *holey_attrs)
    alone = CddRule(determinants=(every,), dependent=j, dep_lo=0.0, dep_hi=0.1)
    assert _rule_samples(hits, alone, holey, repo.samples) == []
    assert asked == [empty]
