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
    FANOUT,
    _build_lattice,
    _walk,
    build_cdd_index,
    build_dr_index,
    dr_query_box_for_rule,
)
from teride.metric import DistanceFn
from teride.model import Repository
from teride.pivot import PivotSet, convert, select_pivots

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


class TestDrIndex:
    def test_range_query_equals_linear_scan(self, setup):
        repo, _, dist, pivots, _ = setup
        idx = build_dr_index(repo, pivots, frozenset({"topic0"}), dist)
        rng = random.Random(4)
        for _ in range(50):
            box = {}
            for x in range(repo.d):
                if rng.random() < 0.7:
                    lo = rng.random()
                    box[x] = (max(0.0, lo - 0.2), min(1.0, lo + 0.2))
            got = {s.rid for s in idx.range_samples(box)}
            expected = set()
            for s in repo.samples:
                ok = True
                for x, (lo, hi) in box.items():
                    c = convert(s.attrs[x], x, pivots, dist)[0]
                    if c < lo - 1e-9 or c > hi + 1e-9:
                        ok = False
                        break
                if ok:
                    expected.add(s.rid)
            assert got == expected

    def test_node_aggregates_cover_descendants(self, setup):
        repo, _, dist, pivots, _ = setup
        idx = build_dr_index(repo, pivots, frozenset({"topic0"}), dist)

        def leaves_under(node):
            if node.is_leaf:
                yield from node.items
            else:
                for c in node.children:
                    yield from leaves_under(c)

        for node in _walk(idx.root):
            payloads = [p for _, p in leaves_under(node)]
            kw_union = frozenset().union(*(p.keywords for p in payloads))
            assert kw_union <= node.agg["keywords"]
            for x in range(repo.d):
                assert node.agg["size_lo"][x] <= min(p.sizes[x] for p in payloads)
                assert node.agg["size_hi"][x] >= max(p.sizes[x] for p in payloads)
            for key, (lo, hi) in node.agg["aux"].items():
                for p in payloads:
                    assert lo - 1e-9 <= p.aux[key] <= hi + 1e-9
            for (ibox, _) in (i for n in [node] if n.is_leaf for i in n.items):
                for k, (lo, hi) in enumerate(node.box):
                    assert lo - 1e-9 <= ibox[k][0] and ibox[k][1] <= hi + 1e-9

    def test_aggregates_are_computed_once_per_node(self, setup, monkeypatch):
        import teride.index

        repo, _, dist, pivots, rules = setup
        calls = []
        for name in ("_set_dr_aggregates", "_set_cdd_aggregates"):
            fn = getattr(teride.index, name)

            def counted(node, *args, fn=fn):
                calls.append(node)
                return fn(node, *args)

            monkeypatch.setattr(teride.index, name, counted)
        roots = [build_dr_index(repo, pivots, frozenset({"topic0"}), dist).root]
        for dep in {r.dependent for r in rules}:
            idx = build_cdd_index([r for r in rules if r.dependent == dep], pivots, dist)
            roots.extend(g.root for g in idx.groups)
        nodes = [n for root in roots for n in _walk(root)]
        assert len(nodes) > len(roots)
        assert sorted(map(id, calls)) == sorted(map(id, nodes))

    def test_fanout_respected(self, setup):
        repo, _, dist, pivots, _ = setup
        idx = build_dr_index(repo, pivots, frozenset(), dist)
        for node in _walk(idx.root):
            assert len(node.children) <= FANOUT
            assert len(node.items) <= FANOUT


class TestCddIndex:
    def test_candidate_rules_match_linear_filter(self, setup):
        repo, trace, dist, pivots, rules = setup
        by_dep = {}
        for rule in rules:
            by_dep.setdefault(rule.dependent, []).append(rule)
        indexes = {j: build_cdd_index(rs, pivots, dist) for j, rs in by_dep.items()}
        checked = 0
        for r in trace:
            for j in r.missing_attrs():
                if j not in indexes:
                    continue
                got = {id(rule) for rule in indexes[j].candidate_rules(r, pivots, dist)}
                expected = set()
                for rule in by_dep[j]:
                    if not rule.applicable_to(r):
                        continue
                    if all(
                        c.kind != CONST or r.attrs[c.attr] == c.value
                        for c in rule.determinants
                    ):
                        expected.add(id(rule))
                assert got == expected
                checked += 1
        assert checked > 0

    def test_group_cover(self, setup):
        repo, _, dist, pivots, rules = setup
        dep = rules[0].dependent
        same_dep = [r for r in rules if r.dependent == dep]
        idx = build_cdd_index(same_dep, pivots, dist)
        indexed = [e.rule for g in idx.groups for node in _walk(g.root) for _, e in node.items]
        assert sorted(r.dep_lo for r in indexed) == sorted(r.dep_lo for r in same_dep)
        group_sets = [frozenset(g.attrs) for g in idx.groups]
        for rule in same_dep:
            assert any(rule.det_attrs <= gs for gs in group_sets)
        # the lattice is built on first read, over the groups' attribute sets
        assert "lattice" not in vars(idx)
        assert idx.lattice == _build_lattice(group_sets)
        assert idx.lattice[0] == sorted(set(group_sets), key=lambda s: (len(s), sorted(s)))
        assert idx.lattice[-1] == [frozenset().union(*group_sets)]

    def test_engine_at_d10_builds_without_the_lattice(self):
        # every dependent here has about 36 groups: a lattice built with the
        # index would enumerate 2^36 group combinations
        repo, _ = make_workload(seed=7, d=10, length=100, repo_size=100)
        t0 = time.perf_counter()
        engine = Engine(repo, make_config(d=10, window=30), mode=MODE_ENGINE)
        assert time.perf_counter() - t0 < 60
        indexes = engine.fetch.cdd_indexes.values()
        assert max(len(idx.groups) for idx in indexes) >= 30
        assert not any("lattice" in vars(idx) for idx in indexes)

    def test_mixed_dependents_rejected(self, setup):
        _, _, dist, pivots, rules = setup
        deps = {r.dependent for r in rules}
        if len(deps) > 1:
            with pytest.raises(ConfigError):
                build_cdd_index(rules, pivots, dist)

    def test_empty_rejected(self, setup):
        _, _, dist, pivots, _ = setup
        with pytest.raises(ConfigError):
            build_cdd_index([], pivots, dist)

    def test_node_aggregates_cover_descendants(self, setup):
        repo, _, dist, pivots, rules = setup
        dep = rules[0].dependent
        idx = build_cdd_index([r for r in rules if r.dependent == dep], pivots, dist)
        for group in idx.groups:
            for node in _walk(group.root):
                members = []

                def collect(n):
                    if n.is_leaf:
                        members.extend(e for _, e in n.items)
                    else:
                        for c in n.children:
                            collect(c)

                collect(node)
                lo, hi = node.agg["dep_interval"]
                for e in members:
                    assert lo - 1e-9 <= e.rule.dep_lo and e.rule.dep_hi <= hi + 1e-9
                for k, x in enumerate(group.attrs):
                    if node.agg["all_const"][k]:
                        assert all(e.kinds[x] == CONST for e in members)


class TestQueryBox:
    def test_box_contains_every_satisfying_sample(self, setup):
        repo, trace, dist, pivots, rules = setup
        from teride.cdd import satisfies_determinants

        idx = build_dr_index(repo, pivots, frozenset(), dist)
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
        idx = build_dr_index(repo, pivots, frozenset(), dist)
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
        idx = build_dr_index(repo, pivots, frozenset(), dist)
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
        idx = build_dr_index(repo, pivots, frozenset(), dist)
        r = next(r for r in trace if len(r.missing_attrs()) == 1)
        _, rules = _hand_built_rules(r, r.missing_attrs()[0])
        for name in ("bucket-9", "hi-within-tol-of-1", "min-open-to-1"):
            rule = rules[name]
            box = dr_query_box_for_rule(rule, r, pivots, dist)
            assert _rule_samples(idx, rule, r, pivots, dist) == idx.range_samples(box)

    def test_absdiff_does_not_filter_by_token(self, numeric_repo, absdiff):
        pivots = select_pivots(numeric_repo, dist=absdiff)
        idx = build_dr_index(numeric_repo, pivots, frozenset({"a1"}), absdiff)
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
    idx = build_dr_index(repo, pivots, frozenset({"a"}), dist)
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
