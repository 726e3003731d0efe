import copy
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from teride.errors import DuplicateTuple, UnknownTuple
from teride.grid import (
    ErGrid,
    summarize,
    token_count_prunes,
    token_need,
)
from teride.impute import ImputedTuple, impute_tuple
from teride.metric import DistanceFn
from teride.pivot import PivotSet, select_pivots
from teride.prune import keyword_prune, sim_ub_token

from .conftest import make_tuple, make_workload, naive_pair_probability, ts


@pytest.fixture(scope="module")
def setup():
    from teride.cdd import detect_cdds
    from teride.errors import NoRulesFound

    repo, trace = make_workload(seed=31, n_streams=3, length=30, repo_size=40, xi=0.4, m=1)
    dist = DistanceFn()
    pivots = select_pivots(repo, dist=dist)
    try:
        rules = detect_cdds(repo, dist)
    except NoRulesFound:
        rules = []
    by_dep = {}
    for rule in rules:
        by_dep.setdefault(rule.dependent, []).append(rule)
    keywords = frozenset({"topic0"})
    summaries = [
        summarize(impute_tuple(r, by_dep, repo, dist), pivots, keywords, dist)
        for r in trace
    ]
    return repo, dist, pivots, keywords, summaries


class TestSummary:
    def test_box_and_sizes_cover_all_options(self, setup):
        repo, dist, pivots, keywords, summaries = setup
        for s in summaries:
            for x in range(repo.d):
                lo, hi = s.box[x]
                assert 0.0 <= lo <= hi <= 1.0
                for v, _ in s.imputed.options[x]:
                    assert lo - 1e-9 <= dist(v, pivots.main(x)) <= hi + 1e-9
                    assert s.sizes[x][0] <= len(v) <= s.sizes[x][1]
            exp, lb, ub = s.pivot_stats
            assert lb == pytest.approx(sum(lo for lo, _ in s.box), abs=1e-12)
            assert ub == pytest.approx(sum(hi for _, hi in s.box), abs=1e-12)
            assert lb - 1e-9 <= exp <= ub + 1e-9

    def test_keywords_union_over_options(self, setup):
        repo, dist, pivots, keywords, summaries = setup
        for s in summaries:
            expected = set()
            for opts in s.imputed.options:
                for v, _ in opts:
                    expected |= keywords & v
            assert s.keywords == frozenset(expected)


def _reference_summary(it, pivots, keywords, dist):
    """Every summary field built per option: every option's distance to the
    main pivot, then min/max and probability-weighted sums."""
    box, sizes, kws = [], [], set()
    exp = lb = ub = 0.0
    for x in range(pivots.d):
        options = it.per_attr_candidates.get(x, [(it.base.attrs[x], 1.0)])
        coords = [dist(v, pivots.main(x)) for v, _ in options]
        box.append((min(coords), max(coords)))
        sizes.append((min(len(v) for v, _ in options), max(len(v) for v, _ in options)))
        for v, _ in options:
            kws |= keywords & v
        lb += box[x][0]
        ub += box[x][1]
        exp += sum(p * c for (_, p), c in zip(options, coords))
    return {
        "box": box,
        "sizes": sizes,
        "keywords": frozenset(kws),
        "pivot_stats": (exp, lb, ub),
    }


def _bits(obj):
    """Floats as their exact hex form, so two structures compare float for float."""
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, (list, tuple)):
        return [_bits(o) for o in obj]
    if isinstance(obj, dict):
        return sorted((k, _bits(v)) for k, v in obj.items())
    if isinstance(obj, frozenset):
        return sorted(obj)
    return obj


class TestSummaryReference:
    FIELDS = ("box", "sizes", "keywords", "pivot_stats")

    @pytest.mark.parametrize("kind", [DistanceFn.JACCARD, DistanceFn.ABSDIFF])
    @pytest.mark.parametrize("seed", [31, 32])
    def test_every_field_equals_the_per_option_reference(self, kind, seed):
        from teride.cdd import detect_cdds
        from teride.errors import NoRulesFound

        repo, trace = make_workload(seed=seed, d=4, length=30, repo_size=40, xi=0.5, m=2)
        dist = DistanceFn(kind)
        pivots = select_pivots(repo, dist=dist)
        assert any(pivots.n_pivots(x) > 1 for x in range(repo.d))
        try:
            rules = detect_cdds(repo, dist)
        except NoRulesFound:
            rules = []
        by_dep = {}
        for rule in rules:
            by_dep.setdefault(rule.dependent, []).append(rule)
        keywords = frozenset({"topic0"})
        imputed = [impute_tuple(r, by_dep, repo, dist) for r in trace]
        assert any(it.per_attr_candidates for it in imputed)
        assert any(not it.per_attr_candidates for it in imputed)
        for it in imputed:
            got = summarize(it, pivots, keywords, dist)
            ref = _reference_summary(it, pivots, keywords, dist)
            for name in self.FIELDS:
                assert _bits(getattr(got, name)) == _bits(ref[name]), (it.rid, name)

    @pytest.mark.parametrize("kind", [DistanceFn.JACCARD, DistanceFn.ABSDIFF])
    @pytest.mark.parametrize("seed", [31, 32])
    def test_engine_built_summaries_equal_the_per_option_reference(self, kind, seed, monkeypatch):
        """An engine's summaries read a fallback attribute's fields from the
        bounds the engine keeps once per attribute, bit for bit what every
        summary would compute from its own options."""
        import teride.engine
        from teride.engine import Engine
        from teride.model import QueryConfig

        repo, trace = make_workload(seed=seed, d=4, length=30, repo_size=40, xi=0.5, m=2)
        keywords = frozenset({"topic0"})
        config = QueryConfig(keywords=keywords, d=4, rho=0.6, alpha=0.2, window_size=10)
        dist = DistanceFn(kind)
        built = []

        def recorded(*args):
            built.append(summarize(*args))
            return built[-1]

        monkeypatch.setattr(teride.engine, "summarize", recorded)
        engine = Engine(repo, config, dist, mode="engine")
        engine.run(list(trace))
        assert engine.stage_counts["refined"]
        fallen = [x for s in built for x in s.imputed.fallback_attrs]
        assert len(fallen) > len(set(fallen)) > 0
        for s in built:
            ref = _reference_summary(s.imputed, engine.pre.pivots, keywords, dist)
            for name in self.FIELDS:
                assert _bits(getattr(s, name)) == _bits(ref[name]), (s.rid, name)
        assert all(
            (engine.pre.fallback_bounds[x] is None) == (x not in fallen) for x in range(repo.d)
        )


class _CountingDist(DistanceFn):
    """A distance that counts its calls."""

    def __init__(self, kind):
        super().__init__(kind)
        self.calls = 0
        self.seen = []

    def __call__(self, a, b):
        self.calls += 1
        self.seen.append((a, b))
        return super().__call__(a, b)


class TestArrivalWork:
    def test_arrival_computes_main_coordinates_only(self):
        from teride.cdd import detect_cdds

        repo, trace = make_workload(seed=31, d=4, length=30, repo_size=40, xi=0.5, m=2)
        # under absdiff the bound distance is the DistanceFn itself, so every call counts
        dist = _CountingDist(DistanceFn.ABSDIFF)
        pivots = select_pivots(repo, dist=dist)
        n_aux = [pivots.n_pivots(x) - 1 for x in range(repo.d)]
        assert any(n_aux)
        by_dep = {}
        for rule in detect_cdds(repo, dist):
            by_dep.setdefault(rule.dependent, []).append(rule)
        imputed = [impute_tuple(r, by_dep, repo, dist) for r in trace]
        assert any(set(it.per_attr_candidates) - it.fallback_attrs for it in imputed)
        fallen = {x for it in imputed for x in it.fallback_attrs}
        assert sum(len(it.fallback_attrs) for it in imputed) > len(fallen) > 0
        for field in ("sizes", "box", "pivot_stats"):
            # one engine's fallback bounds: each fallback attribute's options
            # are asked for by the first summary that needs them, once
            shared = [None] * repo.d
            for it in imputed:
                # the first read fills all three fields in one pass: one call
                # per option against its attribute's main pivot, except on a
                # fallback attribute another summary has already computed
                asks = [
                    x for x in range(repo.d) if x not in it.fallback_attrs or shared[x] is None
                ]
                mains = [pivots.main(x) for x in asks for _ in it.options[x]]
                dist.calls = 0
                s = summarize(it, pivots, frozenset({"topic0"}), dist, shared)
                assert dist.calls == 0
                dist.seen = []
                getattr(s, field)
                assert dist.calls == len(mains)
                assert all(b is main for (_, b), main in zip(dist.seen, mains))
                dist.calls = 0
                s.box, s.sizes, s.pivot_stats
                assert dist.calls == 0
            assert {x for x in range(repo.d) if shared[x] is not None} == fallen
            # a summary built outside an engine asks for every option's coordinate
            for it in imputed:
                dist.calls = 0
                getattr(summarize(it, pivots, frozenset({"topic0"}), dist), field)
                assert dist.calls == sum(len(opts) for opts in it.options)

    def test_complete_arrival_lists_no_options(self, setup):
        """A complete tuple's summary, grid insert and probe leave its options
        unbuilt.  Building every arrival's options at construction doubled the
        generation-0 collections of a tight_rho pass (9-10 to 19-21) and cost
        about a tenth of its arrivals/s on two shared cores."""
        repo, dist, pivots, keywords, summaries = setup
        grid = ErGrid(d=repo.d)
        for s in summaries:
            if s.stream_id != 0:
                grid.insert(s)
        r = make_tuple("complete", 0, 99, *(ts("topic0", f"w{x}") for x in range(repo.d)))
        imputed = ImputedTuple(base=r)
        query = summarize(imputed, pivots, keywords, dist)
        grid.insert(query)
        survivors, _ = grid.candidates(query, 0.6 * repo.d)
        assert survivors
        assert imputed._options is None


class TestGridMechanics:
    def test_insert_evict_restores_state(self, setup):
        _, _, _, _, summaries = setup
        grid = ErGrid(d=summaries[0].imputed.base.d)
        for s in summaries[:10]:
            grid.insert(s)
        before = _slot_state(grid)
        grid.insert(summaries[10])
        grid.evict(summaries[10].rid)
        after = _slot_state(grid)
        # the freed slot stays in the table, empty
        assert after[1] == before[1] + [None]
        assert after[:1] + after[2:] == before[:1] + before[2:]

    def test_duplicate_and_unknown_rejected(self, setup):
        _, _, _, _, summaries = setup
        grid = ErGrid(d=summaries[0].imputed.base.d)
        grid.insert(summaries[0])
        with pytest.raises(DuplicateTuple):
            grid.insert(summaries[0])
        with pytest.raises(UnknownTuple):
            grid.evict("nope")

    def test_eviction_recomputes_exactly(self, setup):
        repo, _, _, _, summaries = setup
        rng = random.Random(7)
        grid = ErGrid(d=repo.d)
        live = []
        for s in summaries:
            grid.insert(s)
            live.append(s)
            if len(live) > 5 and rng.random() < 0.5:
                victim = live.pop(rng.randrange(len(live)))
                grid.evict(victim.rid)
        reference = ErGrid(d=repo.d)
        for s in live:
            reference.insert(s)
        assert _rid_state(grid) == _rid_state(reference)


def _rid_state(grid) -> tuple:
    """The grid's live tuples, keyword-bearing rids and postings, by rid rather than slot."""
    postings = [
        {key: {s.rid for s in grid._summaries(mask)} for key, mask in post.items()}
        for post in grid._postings
    ]
    live = {rid: grid._slots[slot] for rid, slot in grid._live.items()}
    streams = {sid: {s.rid for s in grid._summaries(mask)} for sid, mask in grid._streams.items() if mask}
    return live, streams, {s.rid for s in grid._summaries(grid._kw_mask)}, postings


def _slot_state(grid) -> tuple:
    """The slot table, the live, per-stream and keyword-bearing slot bitmaps and the postings."""
    return (
        dict(grid._live),
        list(grid._slots),
        grid._occupied,
        dict(grid._streams),
        grid._kw_mask,
        copy.deepcopy(grid._postings),
    )


def _under(summaries, kind, pivots, keywords) -> list:
    """The summaries of the same imputed tuples under distance ``kind``, whose key unions they hold."""
    dist = DistanceFn(kind)
    return [summarize(s.imputed, pivots, keywords, dist) for s in summaries]


def _brute_force(q, live, gamma: float) -> tuple:
    """The rids of the tuples of ``live`` from streams other than ``q``'s that pass
    the keyword and shared-key tests, and how many each test skips, pair by pair."""
    skipped = {"keyword": 0, "sim_ub_token": 0}
    passing = set()
    for other in live:
        if other.stream_id == q.stream_id:
            continue
        if keyword_prune(q, other):
            skipped["keyword"] += 1
        elif token_count_prunes(sim_ub_token(q, other), gamma):
            skipped["sim_ub_token"] += 1
        else:
            passing.add(other.rid)
    return passing, skipped


class TestCellChurn:
    def test_equal_a_rebuild_after_random_inserts_and_evicts(self, setup):
        """The live map, the per-stream and keyword-bearing rids and the token
        postings (all by rid, since slot numbers differ) equal those of a grid
        built from the live tuples, which come from three streams."""
        repo, _, _, _, summaries = setup
        assert any(s.keywords for s in summaries) and not all(s.keywords for s in summaries)
        assert {s.stream_id for s in summaries} == {0, 1, 2}
        for seed in range(4):
            rng = random.Random(seed)
            grid = ErGrid(d=repo.d)
            live: dict = {}
            waiting = list(summaries)
            for _ in range(200):
                if live and (not waiting or rng.random() < 0.45):
                    rid = rng.choice(sorted(live))
                    grid.evict(rid)
                    waiting.append(live.pop(rid))
                else:
                    s = waiting.pop(rng.randrange(len(waiting)))
                    grid.insert(s)
                    live[s.rid] = s
                reference = ErGrid(d=repo.d)
                for s in live.values():
                    reference.insert(s)
                assert _rid_state(grid) == _rid_state(reference)


class TestSlotBitmaps:
    def test_candidates_equal_a_scan_under_churn(self, setup):
        """Random inserts, evicts and re-inserts of the tuple just evicted, over
        three streams' tuples: after every operation each probe's survivors and
        skip counts equal a pair-by-pair scan of the other streams' live tuples,
        for every ``need`` from 1 to d, keyword-bearing and keyword-free probes
        of each stream, under Jaccard and absdiff; no survivor shares the
        probe's stream; and no slot reaches the most tuples ever live at once,
        so slots are recycled.  The summaries are built under the distance
        tested, since the keys the filter reads come from the summary."""
        repo, _, pivots, keywords, jaccard_summaries = setup
        gammas = [need - 0.5 for need in range(1, repo.d + 1)]
        assert [token_need(repo.d, gamma) for gamma in gammas] == list(range(1, repo.d + 1))
        for kind in (DistanceFn.JACCARD, DistanceFn.ABSDIFF):
            summaries = _under(jaccard_summaries, kind, pivots, keywords)
            probes = [
                next(s for s in summaries if s.stream_id == sid and bool(s.keywords) == kw)
                for sid in range(3)
                for kw in (True, False)
            ]
            for seed in range(4):
                rng = random.Random(seed)
                grid = ErGrid(d=repo.d)
                live: dict = {}
                waiting = list(summaries)
                evicted = None
                peak = 0
                for _ in range(120):
                    if evicted is not None and rng.random() < 0.3:
                        s, evicted = evicted, None
                        waiting.remove(s)
                    elif live and (not waiting or rng.random() < 0.45):
                        evicted = live.pop(rng.choice(sorted(live)))
                        grid.evict(evicted.rid)
                        waiting.append(evicted)
                        s = None
                    else:
                        s = waiting.pop(rng.randrange(len(waiting)))
                        evicted = None
                    if s is not None:
                        grid.insert(s)
                        live[s.rid] = s
                        peak = max(peak, len(live))
                        assert grid._live[s.rid] < peak
                    assert len(grid._slots) <= peak
                    assert grid._occupied.bit_length() <= peak
                    for gamma in gammas:
                        for q in probes:
                            passing, expected = _brute_force(q, live.values(), gamma)
                            cands, skipped = grid.candidates(q, gamma)
                            assert all(c.stream_id != q.stream_id for c in cands)
                            assert len(cands) == len(passing), (kind, seed, gamma)
                            assert {c.rid for c in cands} == passing, (kind, seed, gamma)
                            assert skipped == expected, (kind, seed, gamma)
                assert peak < len(summaries)

    @pytest.mark.parametrize("kind", [DistanceFn.JACCARD, DistanceFn.ABSDIFF])
    def test_rejected_insert_and_evict_change_nothing(self, setup, kind):
        _, _, pivots, keywords, summaries = setup
        summaries = _under(summaries, kind, pivots, keywords)
        grid = ErGrid(d=summaries[0].imputed.base.d)
        for s in summaries[:12]:
            grid.insert(s)
        for s in summaries[2:6]:
            grid.evict(s.rid)
        before = _slot_state(grid)
        assert before[2].bit_count() < len(before[1])  # some slots are free
        with pytest.raises(DuplicateTuple):
            grid.insert(summaries[0])
        assert _slot_state(grid) == before
        with pytest.raises(UnknownTuple):
            grid.evict(summaries[3].rid)
        assert _slot_state(grid) == before


class TestCandidates:
    def test_shared_key_count_applies_under_every_distance(self, absdiff):
        # b shares a token with a on the keyword attribute and on attribute 3,
        # and its numbers share the one numeric key under absdiff; c shares
        # tokens on the same attributes, but no number.  Under absdiff,
        # attribute 3's unequal non-numeric values share no key.
        keywords = frozenset({"topic0"})
        a = ImputedTuple(base=make_tuple("a", 0, 1, ts("topic0"), ts("0.2"), ts("0.1"), ts("x", "y")))
        b = ImputedTuple(base=make_tuple("b", 1, 1, ts("topic0"), ts("0.25"), ts("0.15"), ts("x", "z")))
        c = ImputedTuple(base=make_tuple("c", 1, 2, ts("topic0"), ts("w1"), ts("w2"), ts("x", "z")))
        pivots = PivotSet(per_attr=[[ts("0.0")] for _ in range(4)])
        cases = (
            (absdiff, 1.5, ["b"]),
            (absdiff, 2.5, ["b"]),
            (DistanceFn(), 1.5, ["b", "c"]),
            (DistanceFn(), 2.5, []),
        )
        for dist, gamma, survivors in cases:
            grid = ErGrid(d=4)
            for it in (b, c):
                grid.insert(summarize(it, pivots, keywords, dist))
            cands, skipped = grid.candidates(summarize(a, pivots, keywords, dist), gamma)
            assert [x.rid for x in cands] == survivors, (dist, gamma)
            assert skipped == {"keyword": 0, "sim_ub_token": 2 - len(survivors)}, (dist, gamma)

    def test_no_qualifying_pair_is_skipped(self, setup):
        repo, dist, pivots, keywords, summaries = setup
        gamma = 0.6 * repo.d
        grid = ErGrid(d=repo.d)
        stream0 = [s for s in summaries if s.stream_id == 0][:15]
        stream1 = [s for s in summaries if s.stream_id == 1][:15]
        for s in stream1:
            grid.insert(s)
        for q in stream0:
            cands, skipped = grid.candidates(q, gamma)
            cand_rids = {c.rid for c in cands}
            assert len(cand_rids) == len(cands)
            assert cand_rids <= {s.rid for s in stream1}
            assert len(cands) + sum(skipped.values()) == len(stream1)
            for other in stream1:
                prob = naive_pair_probability(
                    q.imputed, other.imputed, gamma, keywords, dist
                )
                if prob > 0.0:
                    assert other.rid in cand_rids, (
                        f"grid skipped {other.rid} though the pair has probability {prob}"
                    )

    def test_skipped_stages_are_justified(self, setup):
        """Survivors are exactly the tuples that pass the keyword and shared-key
        tests, under Jaccard and absdiff, and each count is a brute-force count.

        The gammas need every shared-attribute count from 1 to d, so the
        bitmap filter counts to every depth from 1 to d."""
        repo, _, pivots, keywords, jaccard_summaries = setup
        gammas = [need - 0.5 for need in range(1, repo.d + 1)] + [0.6 * repo.d]
        needs = {token_need(repo.d, gamma) for gamma in gammas}
        assert needs == set(range(1, repo.d + 1))
        for kind in (DistanceFn.JACCARD, DistanceFn.ABSDIFF):
            summaries = _under(jaccard_summaries, kind, pivots, keywords)
            stream0 = [s for s in summaries if s.stream_id == 0][:15]
            stream1 = [s for s in summaries if s.stream_id == 1][:15]
            grid = ErGrid(d=repo.d)
            for s in stream1:
                grid.insert(s)
            token_skips = 0
            for gamma in gammas:
                for q in stream0:
                    passing, expected = _brute_force(q, stream1, gamma)
                    cands, skipped = grid.candidates(q, gamma)
                    assert len(cands) == len(passing), (kind, gamma)
                    assert {c.rid for c in cands} == passing, (kind, gamma)
                    assert skipped == expected, (kind, gamma)
                    token_skips += skipped["sim_ub_token"]
            assert token_skips > 0, kind


KINDS = (DistanceFn.JACCARD, DistanceFn.ABSDIFF)
# multi-token sets, some holding numeric tokens, and single tokens, numeric or
# odd: absdiff reads a one-token value as a number only when it is finite
odd_values = st.one_of(
    st.frozensets(st.sampled_from(["a", "b", "topic0", "0", "0.5", "nan"]), min_size=1, max_size=3),
    st.sampled_from(["0", "0.5", "-0", "1e400", "nan", "inf", "-inf", "0.25", "a"]).map(ts),
)


def _keys(dist, value) -> frozenset:
    """The similarity keys of one present value."""
    return dist.key_unions(ImputedTuple(base=make_tuple("v", 0, 1, value)))[0]


@st.composite
def _imputed(draw, rid: str, stream_id: int, d: int = 3):
    """A tuple of ``d`` attributes, each present or imputed with up to three options."""
    attrs, cands = [], {}
    for j in range(d):
        if draw(st.booleans()):
            attrs.append(draw(odd_values))
            continue
        vs = draw(st.lists(odd_values, min_size=1, max_size=3, unique=True))
        ws = draw(st.lists(st.integers(1, 4), min_size=len(vs), max_size=len(vs)))
        attrs.append(None)
        cands[j] = [(v, w / sum(ws)) for v, w in zip(vs, ws)]
    return ImputedTuple(base=make_tuple(rid, stream_id, 1, *attrs), per_attr_candidates=cands)


class TestKeyInvariant:
    """Two values with disjoint keys have similarity exactly 0, so the shared-key
    count bounds every pair under either distance, and the grid never skips a
    pair that can match."""

    @given(st.sampled_from(KINDS), odd_values, odd_values)
    def test_disjoint_keys_mean_similarity_zero(self, kind, a, b):
        dist = DistanceFn(kind)
        if _keys(dist, a).isdisjoint(_keys(dist, b)):
            assert dist.sim(a, b) == 0.0
        assert not _keys(dist, a).isdisjoint(_keys(dist, a))

    @given(st.data())
    def test_absdiff_grid_skips_no_pair_that_can_match(self, data):
        absdiff = DistanceFn(DistanceFn.ABSDIFF)
        keywords = frozenset({"topic0"})
        pivots = PivotSet(per_attr=[[ts("0.5")] for _ in range(3)])
        probe = data.draw(_imputed("q", 0))
        others = [data.draw(_imputed(f"o{i}", 1)) for i in range(data.draw(st.integers(1, 4)))]
        gamma = data.draw(st.sampled_from([0.5, 1.2, 1.5, 2.5]))
        grid = ErGrid(d=3)
        for it in others:
            grid.insert(summarize(it, pivots, keywords, absdiff))
        cands, skipped = grid.candidates(summarize(probe, pivots, keywords, absdiff), gamma)
        assert len(cands) + sum(skipped.values()) == len(others)
        survivors = {c.rid for c in cands}
        for it in others:
            # a pair the grid skips has probability exactly 0, below every alpha
            if naive_pair_probability(probe, it, gamma, keywords, absdiff) > 0.0:
                assert it.rid in survivors, (it, gamma)
