import pytest
from hypothesis import given
from hypothesis import strategies as st

from teride.engine import _FilteredScanFetch
from teride.grid import _SUM_SLACK, ErGrid, summarize
from teride.impute import ImputedTuple, impute_tuple
from teride.metric import DistanceFn, jaccard_dist, jaccard_sim
from teride.model import QueryConfig, Repository, contains_keyword
from teride.pivot import PivotSet, select_pivots
from teride.prune import (
    STAGE_KEYWORD,
    STAGE_PIVOT,
    STAGE_REFINED,
    STAGE_SINGLE,
    STAGE_TOKEN,
    STAGES,
    PairVerdict,
    instance_level_scan,
    judge_pair,
    pair_probability,
    prob_reports,
    prob_ub_paley_zygmund,
    sim_matches,
    sim_ub_token,
    ub_sim_by_pivot,
    ub_sim_by_size,
    ub_sim_single,
)

from .conftest import (
    enumerate_instances,
    make_tuple,
    make_workload,
    naive_pair_probability,
    reference_instance_level_scan,
    ts,
)

tokens = st.frozensets(st.sampled_from("abcdefgh"), min_size=1, max_size=6)


@pytest.fixture(scope="module")
def setup():
    from teride.cdd import detect_cdds
    from teride.errors import NoRulesFound

    repo, trace = make_workload(seed=41, length=25, repo_size=40, xi=0.4, m=1)
    dist = DistanceFn()
    pivots = select_pivots(repo, dist=dist)
    try:
        rules = detect_cdds(repo, dist)
    except NoRulesFound:
        rules = []
    by_dep = {}
    for rule in rules:
        by_dep.setdefault(rule.dependent, []).append(rule)
    keywords = frozenset({"topic0", "topic1"})
    summaries = [
        summarize(impute_tuple(r, by_dep, repo, dist), pivots, keywords, dist)
        for r in trace
    ]
    s0 = [s for s in summaries if s.stream_id == 0]
    s1 = [s for s in summaries if s.stream_id == 1]
    return repo, dist, keywords, s0, s1


class TestThresholds:
    def test_strict_similarity(self):
        assert sim_matches(1.5001, 1.5)
        assert not sim_matches(1.5, 1.5)
        assert not sim_matches(1.4999, 1.5)

    def test_strict_probability(self):
        assert prob_reports(0.2001, 0.2)
        assert not prob_reports(0.2, 0.2)


class TestSizeBound:
    def test_reference_value(self):
        # size intervals A: 10 vs 8, B: 7 vs 10, C: [5,7] vs [10,12] -> 2.2
        ub = ub_sim_by_size([(10, 10), (7, 7), (5, 7)], [(8, 8), (10, 10), (10, 12)])
        assert ub == pytest.approx(2.2, abs=1e-9)

    def test_overlapping_sizes_give_one(self):
        assert ub_sim_by_size([(3, 5)], [(4, 6)]) == 1.0

    @given(tokens, tokens)
    def test_dominates_exact_similarity(self, a, b):
        ub = ub_sim_by_size([(len(a), len(a))], [(len(b), len(b))])
        assert ub + 1e-12 >= jaccard_sim(a, b)


class TestPivotBound:
    def test_reference_value(self):
        # distances to pivot: {0.3, 0.3, [0.1,0.2]} vs {0.7, 0.8, [0.7,0.9]} -> 1.6
        ub = ub_sim_by_pivot(
            [(0.3, 0.3), (0.3, 0.3), (0.1, 0.2)], [(0.7, 0.7), (0.8, 0.8), (0.7, 0.9)]
        )
        assert ub == pytest.approx(1.6, abs=1e-9)

    def test_overlapping_intervals_no_tightening(self):
        assert ub_sim_by_pivot([(0.1, 0.5)], [(0.4, 0.8)]) == 1.0

    @given(tokens, tokens, tokens)
    def test_dominates_exact_similarity(self, a, b, piv):
        da, db = jaccard_dist(a, piv), jaccard_dist(b, piv)
        ub = ub_sim_by_pivot([(da, da)], [(db, db)])
        assert ub + 1e-12 >= jaccard_sim(a, b)


class TestPaleyZygmund:
    def test_reference_value(self):
        # E(X)=0.7, lb_X=0.3, ub_X=1.1; E(Y)=1.2, lb_Y=1.1, ub_Y=1.3; d=3, gamma=2.8
        ub = prob_ub_paley_zygmund((0.7, 0.3, 1.1), (1.2, 1.1, 1.3), d=3, gamma=2.8)
        assert ub == pytest.approx(0.82, abs=1e-9)

    def test_overlapping_ranges_give_one(self):
        assert prob_ub_paley_zygmund((0.5, 0.2, 0.8), (0.6, 0.3, 0.9), d=3, gamma=2.0) == 1.0

    def test_theta_above_one_gives_one(self):
        # separated ranges but d - gamma exceeds the expectation gap
        assert prob_ub_paley_zygmund((0.1, 0.0, 0.2), (0.5, 0.4, 0.6), d=3, gamma=1.0) == 1.0


class TestSingleOptionBound:
    """``sim_ub_single``: the first stage of ``judge_pair``, one term per attribute."""

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("kind", [DistanceFn.JACCARD, DistanceFn.ABSDIFF])
    def test_settled_pairs_cannot_match(self, kind, m):
        # the bound is at least the sum of the scan's table maxima, and a pair
        # it settles has probability 0 by both references
        settled = 0
        repo, dist, keywords, summaries, pairs = _scan_workload(42, False, kind, m=m)
        pivots = select_pivots(repo, dist=dist)
        f = dist.bind()
        for a, b in pairs:
            ub = ub_sim_single(a, b, f)
            maxima = [
                max(1.0 - f(u, v) for u, _ in oi for v, _ in oj)
                for oi, oj in zip(a.imputed.options, b.imputed.options)
            ]
            assert ub + _SUM_SLACK >= sum(maxima), (kind, a.rid, b.rid)
            for rho in (0.45, 0.6):
                gamma = rho * repo.d
                if sim_matches(ub + _SUM_SLACK, gamma):
                    continue
                settled += 1
                args = (a.imputed, b.imputed, gamma)
                assert reference_instance_level_scan(*args, -1.0, keywords, dist) == (False, 0.0)
                assert naive_pair_probability(*args, keywords, dist) == 0.0
                fresh = [summarize(s.imputed, pivots, keywords, dist) for s in (a, b)]
                assert judge_pair(*fresh, gamma, 0.2, keywords, dist) == PairVerdict(STAGE_SINGLE)
                # a settled pair computes neither summary's bound fields
                assert [s._bounds for s in fresh] == [None, None]
        assert settled, (kind, m)

    @staticmethod
    def _pair(attr1_b):
        """A keyword-bearing pair over d=2: attribute 0 holds one option in both
        tuples, at similarity 0.5 under Jaccard, and on attribute 1 ``a`` is
        imputed with the options {u} and {v} against ``b``'s ``attr1_b``."""
        a = ImputedTuple(
            base=make_tuple("a", 0, 1, ts("topic0", "x"), None),
            per_attr_candidates={1: [(ts("u"), 0.5), (ts("v"), 0.5)]},
        )
        b = ImputedTuple(base=make_tuple("b", 1, 1, ts("topic0"), attr1_b))
        pivots = PivotSet(per_attr=[[ts("pivot")] for _ in range(2)])
        dist = DistanceFn()
        return [summarize(it, pivots, frozenset({"topic0"}), dist) for it in (a, b)]

    def test_single_options_summing_to_gamma_are_settled(self):
        keywords = frozenset({"topic0"})
        pivots = PivotSet(per_attr=[[ts("pivot")] for _ in range(2)])
        dist = DistanceFn()
        a, b = (
            summarize(ImputedTuple(base=make_tuple(rid, sid, 1, *vals)), pivots, keywords, dist)
            for rid, sid, vals in (
                ("a", 0, (ts("topic0", "x"), ts("p"))),
                ("b", 1, (ts("topic0"), ts("p", "q"))),
            )
        )
        assert ub_sim_single(a, b, dist.bind()) == 0.5 + 0.5 == 1.0
        assert judge_pair(a, b, 1.0, 0.2, keywords, dist) == PairVerdict(STAGE_SINGLE)
        assert naive_pair_probability(a.imputed, b.imputed, 1.0, keywords, dist) == 0.0
        # just below, the pair matches with probability 1
        assert judge_pair(a, b, 1.0 - 1e-6, 0.2, keywords, dist) == PairVerdict(
            STAGE_REFINED, True, 1.0
        )

    def test_multi_option_attribute_counts_its_key_overlap(self):
        f = DistanceFn().bind()
        # disjoint keys: similarity 0 on every option pair, and 0.0 in the bound
        assert ub_sim_single(*self._pair(ts("w")), f) == 0.5
        # shared keys: 1.0, though the best option pair ({u} against {u, z})
        # has similarity 0.5
        a, b = self._pair(ts("u", "z"))
        assert ub_sim_single(a, b, f) == 1.5
        keywords = frozenset({"topic0"})
        verdict = judge_pair(a, b, 1.4, 0.2, keywords, DistanceFn())
        assert verdict.stage not in (STAGE_SINGLE, STAGE_REFINED)
        assert naive_pair_probability(a.imputed, b.imputed, 1.4, keywords, DistanceFn()) == 0.0

    def test_asks_one_distance_per_single_option_attribute(self):
        # attributes 0 and 1 hold one option in both tuples; attribute 2 is
        # imputed in a and shares a key with b, attribute 3 is imputed in a
        # and shares none
        keywords = frozenset({"topic0"})
        pivots = PivotSet(per_attr=[[ts("pivot")] for _ in range(4)])
        for kind in (DistanceFn.JACCARD, DistanceFn.ABSDIFF):
            dist = _CountingDistance(kind)
            a = ImputedTuple(
                base=make_tuple("a", 0, 1, ts("topic0", "x"), ts("p"), None, None),
                per_attr_candidates={
                    2: [(ts("r"), 0.6), (ts("t"), 0.4)],
                    3: [(ts("u"), 0.5), (ts("v"), 0.5)],
                },
            )
            b = ImputedTuple(base=make_tuple("b", 1, 1, ts("topic0"), ts("p", "q"), ts("r"), ts("w")))
            sa, sb = (summarize(it, pivots, keywords, dist) for it in (a, b))
            assert dist.calls == 0, kind
            ub = ub_sim_single(sa, sb, dist.bind())
            assert dist.calls == 2, kind
            want = {DistanceFn.JACCARD: 0.5 + 0.5 + 1.0, DistanceFn.ABSDIFF: 0.0 + 0.0 + 1.0}
            assert ub == want[kind], kind
            # the cascade settles the pair there, with no other distance and
            # neither summary's bound fields computed
            assert judge_pair(sa, sb, 2.0, 0.2, keywords, dist) == PairVerdict(STAGE_SINGLE)
            assert dist.calls == 4, kind
            assert sa._bounds is None and sb._bounds is None, kind


class TestBoundsDominate:
    def test_similarity_and_probability_bounds(self, setup):
        repo, dist, keywords, s0, s1 = setup
        gamma = 0.6 * repo.d
        checked = 0
        for a in s0[:12]:
            for b in s1[:12]:
                exact = naive_pair_probability(a.imputed, b.imputed, gamma, keywords, dist)
                max_sim = max(
                    sum(dist.sim(x, y) for x, y in zip(ia.attrs, ib.attrs))
                    for ia, _ in enumerate_instances(a.imputed)
                    for ib, _ in enumerate_instances(b.imputed)
                )
                assert ub_sim_by_size(a.sizes, b.sizes) + 1e-9 >= max_sim
                assert sim_ub_token(a, b) + 1e-9 >= max_sim
                assert ub_sim_by_pivot(a.box, b.box) + 1e-9 >= max_sim
                ub = prob_ub_paley_zygmund(a.pivot_stats, b.pivot_stats, repo.d, gamma)
                assert ub + 1e-9 >= exact
                checked += 1
        assert checked > 0


class TestPairProbability:
    def test_matches_naive_enumeration(self, setup):
        repo, dist, keywords, s0, s1 = setup
        gamma = 0.6 * repo.d
        for a in s0[:10]:
            for b in s1[:10]:
                got = pair_probability(a.imputed, b.imputed, gamma, keywords, dist)
                want = naive_pair_probability(a.imputed, b.imputed, gamma, keywords, dist)
                assert got == pytest.approx(want, abs=1e-9)


class TestInstanceLevel:
    def test_prune_decision_is_sound(self, setup):
        repo, dist, keywords, s0, s1 = setup
        gamma, alpha = 0.6 * repo.d, 0.3
        for a in s0[:10]:
            for b in s1[:10]:
                pruned, confirmed = instance_level_scan(
                    a.imputed, b.imputed, gamma, alpha, keywords, dist
                )
                exact = naive_pair_probability(a.imputed, b.imputed, gamma, keywords, dist)
                if pruned:
                    assert exact <= alpha + 1e-9
                else:
                    # an unpruned scan is the refinement: its sum is the exact probability
                    assert confirmed == pair_probability(a.imputed, b.imputed, gamma, keywords, dist)
                assert confirmed <= exact + 1e-9


class TestCascade:
    def test_verdict_agrees_with_exact_evaluation(self, setup):
        repo, dist, keywords, s0, s1 = setup
        gamma, alpha = 0.6 * repo.d, 0.2
        for a in s0[:12]:
            for b in s1[:12]:
                verdict = judge_pair(a, b, gamma, alpha, keywords, dist)
                exact = naive_pair_probability(a.imputed, b.imputed, gamma, keywords, dist)
                if verdict.stage == STAGE_REFINED:
                    assert verdict.prob == pytest.approx(exact, abs=1e-9)
                    assert verdict.matched == prob_reports(exact, alpha)
                else:
                    # any stage short of refinement must only discard non-matches
                    assert not prob_reports(exact, alpha)

    @pytest.mark.parametrize("kind", [DistanceFn.JACCARD, DistanceFn.ABSDIFF])
    def test_verdict_does_not_depend_on_coordinates_read_before(self, kind):
        # the main-pivot coordinates are computed on first read; reading them
        # on neither, either or both summaries before judging changes nothing.
        # Two holes per tuple leave pairs that the single-option bound passes
        # and the pivot bound settles.  Under absdiff the values are numbers
        # past attribute 0: on gen's multi-token values every absdiff
        # distance is 0 or 1, the single-option bound equals the sum of the
        # scan's table maxima, and no pair it passes reaches the pivot bound
        stages = set()
        for seed in (40, 41):
            repo, dist, keywords, summaries, pairs = _scan_workload(
                seed, False, kind, m=2, numeric=kind == DistanceFn.ABSDIFF
            )
            pivots = select_pivots(repo, dist=dist)

            def judged(a, b, gamma, read):
                fresh = [summarize(s.imputed, pivots, keywords, dist) for s in (a, b)]
                for s, first in zip(fresh, read):
                    if first:
                        s.box, s.pivot_stats
                return judge_pair(*fresh, gamma, 0.2, keywords, dist)

            for rho in (0.6, 0.85):
                gamma = rho * repo.d
                for a, b in pairs:
                    verdict = judged(a, b, gamma, (False, False))
                    stages.add(verdict.stage)
                    for read in ((True, False), (False, True), (True, True)):
                        assert judged(a, b, gamma, read) == verdict, (kind, rho, a.rid, b.rid, read)
        assert {STAGE_PIVOT, STAGE_REFINED} <= stages

    @staticmethod
    def _shared_on(n_shared, dist):
        """Summaries of a keyword-bearing pair over d=4 whose values are equal on
        the first ``n_shared`` attributes and share no token on the others.
        Attribute 0 is imputed for ``a``, and only its second option is the
        shared value."""
        same = [ts("p", "q"), ts("topic0", "x"), ts("y", "z"), ts("u", "v")]
        other = [ts("w5"), ts("topic1", "w1"), ts("w2"), ts("w3", "w4")]
        a = ImputedTuple(
            base=make_tuple("a", 0, 1, None, *same[1:]),
            per_attr_candidates={0: [(ts("r", "s"), 0.7), (same[0], 0.3)]},
        )
        b = ImputedTuple(base=make_tuple("b", 1, 1, *same[:n_shared], *other[n_shared:]))
        pivots = PivotSet(per_attr=[[ts("pivot")] for _ in range(4)])
        keywords = frozenset({"topic0"})
        return [summarize(it, pivots, keywords, dist) for it in (a, b)]

    @pytest.mark.parametrize("gamma", [2.0, 2.5])
    def test_shared_token_count_at_the_threshold(self, gamma):
        """The pair's values are non-numeric, so under absdiff they share a key
        only where they are equal, and the count bounds them as under Jaccard."""
        keywords = frozenset({"topic0"})
        config = QueryConfig(keywords=keywords, d=4, rho=gamma / 4, alpha=0.2, window_size=10)
        for kind in (DistanceFn.JACCARD, DistanceFn.ABSDIFF):
            # floor(gamma) shared attributes: both fetchers' filters settle the
            # pair, and no distance is computed
            dist = _CountingDistance(kind)
            a, b = self._shared_on(int(gamma), dist)
            grid = ErGrid(d=4)
            grid.insert(b)
            assert grid.candidates(a, gamma) == ([], {STAGE_KEYWORD: 0, STAGE_TOKEN: 1}), kind
            counts = dict.fromkeys(STAGES, 0)
            assert _FilteredScanFetch(None, config, dist).candidates(a, {1: [b]}, counts) == []
            assert counts == {**dict.fromkeys(STAGES, 0), STAGE_TOKEN: 1}, kind
            assert dist.calls == 0, kind
            # one more: the imputed option shared on attribute 0 lifts the pair
            # past both filters, and the refinement that settles it does
            # compute distances
            dist = _CountingDistance(kind)
            a, b = self._shared_on(int(gamma) + 1, dist)
            grid.evict("b")
            grid.insert(b)
            assert grid.candidates(a, gamma) == ([b], {STAGE_KEYWORD: 0, STAGE_TOKEN: 0}), kind
            counts = dict.fromkeys(STAGES, 0)
            assert _FilteredScanFetch(None, config, dist).candidates(a, {1: [b]}, counts) == [b]
            assert counts == dict.fromkeys(STAGES, 0), kind
            verdict = judge_pair(a, b, gamma, 0.2, keywords, dist)
            assert verdict.stage == STAGE_REFINED and verdict.matched, kind
            assert verdict.prob == pytest.approx(0.3), kind
            assert dist.calls > 0, kind


def _numeric(r):
    """``r`` with every present value past attribute 0 made one number, as in the
    CI "absdiff, pivot bound" smoke."""
    return make_tuple(r.rid, r.stream_id, r.arrival_time, *(
        v if j == 0 or v is None else ts(f"{sum(int(t[1:]) for t in v) % 50 / 50:.2f}")
        for j, v in enumerate(r.attrs)
    ))


def _scan_workload(seed, fallback, kind=DistanceFn.JACCARD, m=1, numeric=False):
    """Cross-stream summary pairs of one seeded workload with ``m`` missing
    attributes per injected tuple; with ``fallback`` every missing attribute
    is imputed by the uniform fallback instead of by rules, and with
    ``numeric`` every value past attribute 0 is one number (``_numeric``)."""
    from teride.cdd import detect_cdds
    from teride.errors import NoRulesFound

    repo, trace = make_workload(seed=seed, length=16, repo_size=30, xi=0.6, m=m)
    if numeric:
        repo = Repository([_numeric(r) for r in repo.samples])
        trace = [_numeric(r) for r in trace]
    dist = DistanceFn(kind)
    pivots = select_pivots(repo, dist=dist)
    by_dep = {}
    if not fallback:
        try:
            rules = detect_cdds(repo, dist)
        except NoRulesFound:
            rules = []
        for rule in rules:
            by_dep.setdefault(rule.dependent, []).append(rule)
    keywords = frozenset({"topic0", "topic1"})
    summaries = [
        summarize(impute_tuple(r, by_dep, repo, dist), pivots, keywords, dist) for r in trace
    ]
    pairs = [
        (a, b)
        for a in summaries
        if a.stream_id == 0
        for b in summaries
        if b.stream_id == 1
    ]
    return repo, dist, keywords, summaries, pairs


class _CountingDistance(DistanceFn):
    """Distance (Jaccard by default) that counts the distances asked of it: every
    call, and every call of the function ``bind()`` returns."""

    def __init__(self, kind=DistanceFn.JACCARD):
        super().__init__(kind)
        self.calls = 0

    def __call__(self, a, b):
        self.calls += 1
        return super().__call__(a, b)

    def bind(self):
        f = super().bind()
        if f is self:  # absdiff binds to the distance itself, which counts its calls
            return f

        def counted(a, b):
            self.calls += 1
            return f(a, b)

        return counted


def assert_scan_agrees(got, want, args):
    """The scan's decision is the reference's; unpruned, its probability is the
    reference's at the 12 significant digits an event is written with, and
    within 1e-15 relative: the convolution adds the same masses in another
    order.  A pruned scan reports 0.0."""
    assert got[0] == want[0], args
    if got[0]:
        assert got[1] == 0.0, args
    else:
        assert f"{got[1]:.12g}" == f"{want[1]:.12g}", args
        assert got[1] == pytest.approx(want[1], rel=1e-15, abs=0.0), args


class TestInstanceScanMatchesReference:
    """The convolution decides every pair as the per-instance-pair scan does."""

    @pytest.mark.parametrize(
        "seed,fallback", [(41, False), (42, False), (43, True), (44, True)]
    )
    def test_exact_agreement(self, seed, fallback):
        for kind in (DistanceFn.JACCARD, DistanceFn.ABSDIFF):
            repo, dist, keywords, summaries, pairs = _scan_workload(seed, fallback, kind)
            if fallback:
                assert any(s.imputed.fallback_attrs for s in summaries)
            keyword_free = shortcut = 0
            for rho in (0.45, 0.6):
                gamma = rho * repo.d
                # alpha -1 is the pair_probability scan, which never prunes
                for alpha in (-1.0, 0.0, 0.2, 0.5):
                    for a, b in pairs:
                        want = reference_instance_level_scan(
                            a.imputed, b.imputed, gamma, alpha, keywords, dist
                        )
                        got = instance_level_scan(a.imputed, b.imputed, gamma, alpha, keywords, dist)
                        assert_scan_agrees(got, want, (kind, a.rid, b.rid, gamma, alpha))
                        if want == (True, 0.0):
                            shortcut += 1
            for s in summaries:
                keyword_free += not any(
                    contains_keyword(v, keywords) for opts in s.imputed.options for v, _ in opts
                )
            # the workload reaches keyword-free tuples and scans that end pruned
            # with nothing confirmed
            assert keyword_free and shortcut, kind

    def test_instances_differing_in_keyword(self):
        keywords = frozenset({"topic0"})
        a = ImputedTuple(
            base=make_tuple("a", 0, 1, None, ts("x", "y"), ts("p", "q")),
            per_attr_candidates={0: [(ts("topic0", "x"), 0.5), (ts("x", "z"), 0.3), (ts("q"), 0.2)]},
        )
        b = ImputedTuple(
            base=make_tuple("b", 1, 1, ts("x", "z"), ts("x", "y", "w"), None),
            per_attr_candidates={2: [(ts("p", "q"), 0.6), (ts("topic0"), 0.25), (ts("r"), 0.15)]},
        )
        # only a's most likely option on attribute 0 and b's second option on
        # attribute 2 hold the keyword
        assert [contains_keyword(v, keywords) for v, _ in a.options[0]] == [True, False, False]
        assert [contains_keyword(v, keywords) for v, _ in b.options[2]] == [False, True, False]
        dist = DistanceFn()
        outcomes = set()
        for tenth in range(5, 30):
            for alpha in (0.0, 0.1, 0.3, 0.5, 0.7):
                args = (a, b, tenth / 10, alpha, keywords, dist)
                got = instance_level_scan(*args)
                assert_scan_agrees(got, reference_instance_level_scan(*args), args)
                outcomes.add((got[0], got[1] > 0.0))
        # a pruned scan reports nothing, and an unpruned one always confirms
        # some mass
        assert outcomes == {(True, False), (False, True)}

    def test_mass_just_below_the_threshold_is_pruned(self):
        # gamma + 1e-9 is exactly 1.0, so the similarity-1 option pair sits
        # within the bound's slack of the threshold without passing it: its
        # state survives the walk, yet the pair's probability is 0
        keywords = frozenset({"topic0"})
        a = ImputedTuple(
            base=make_tuple("a", 0, 1, None),
            per_attr_candidates={0: [(ts("topic0", "x"), 0.5), (ts("topic0", "y"), 0.5)]},
        )
        b = ImputedTuple(base=make_tuple("b", 1, 1, ts("topic0", "x")))
        gamma = 1.0 - 1e-9
        assert gamma + 1e-9 == 1.0
        args = (a, b, gamma, 0.2, keywords, DistanceFn())
        assert instance_level_scan(*args) == (True, 0.0)
        assert reference_instance_level_scan(*args)[0]

    def test_cached_summary_state_equals_fresh_computation(self):
        for kind in (DistanceFn.JACCARD, DistanceFn.ABSDIFF):
            repo, dist, keywords, summaries, pairs = _scan_workload(41, False, kind)
            gamma = 0.6 * repo.d
            for a, b in pairs[:200]:
                judge_pair(a, b, gamma, 0.2, keywords, dist)
            for s in summaries:
                assert s.imputed.token_unions() == [
                    frozenset().union(*(v for v, _ in opts)) for opts in s.imputed.options
                ]
                # the ranges the size and pivot bounds assume
                assert all(-1e-9 <= lo <= hi <= 1.0 + 1e-9 for lo, hi in s.box), (kind, s.rid)
                assert all(1 <= least <= greatest for least, greatest in s.sizes), (kind, s.rid)

    def test_absdiff_keeps_the_full_scan(self, absdiff):
        # no attribute shares a token except the keyword one, yet the numeric
        # attributes are close under absdiff, so the pair matches
        keywords = frozenset({"topic0"})
        a = ImputedTuple(
            base=make_tuple("a", 0, 1, ts("topic0"), ts("0.2"), None),
            per_attr_candidates={2: [(ts("0.1"), 0.6), (ts("0.9"), 0.4)]},
        )
        b = ImputedTuple(
            base=make_tuple("b", 1, 1, ts("topic0"), ts("0.25"), ts("0.15")),
        )
        assert sum(not x.isdisjoint(y) for x, y in zip(a.token_unions(), b.token_unions())) == 1
        for gamma in (1.5, 2.5):
            for alpha in (0.0, 0.5):
                args = (a, b, gamma, alpha, keywords, absdiff)
                got = instance_level_scan(*args)
                assert_scan_agrees(got, reference_instance_level_scan(*args), args)
                assert got[1] > 0.0
