"""End-to-end acceptance suite covering the shipped guarantees.

Each test class pins one externally visible property: reference-value
exactness, equivalence with the exhaustive reference mode, soundness and
power of the pruning cascade, indexed speedup, pivot selection, window
semantics, and structural invariants of the indexes and the grid.
"""

import math
import random
import time
from itertools import product

import pytest

from teride.cdd import detect_cdds
from teride.engine import (
    KIND_EXPIRE,
    KIND_MATCH,
    MODE_ENGINE,
    MODE_NOINDEX,
    MODE_ORACLE,
    Engine,
)
from teride.errors import NoRulesFound
from teride.grid import ErGrid, summarize
from teride.impute import impute_multi_rule, impute_tuple
from teride.index import build_cdd_index, build_dr_index
from teride.metric import DistanceFn
from teride.model import QueryConfig
from teride.pivot import (
    DEFAULT_CNTMAX,
    DEFAULT_EMIN,
    DEFAULT_P,
    entropy,
    select_pivots,
)
from teride.prune import (
    STAGE_REFINED,
    instance_level_scan,
    judge_pair,
    keyword_prune,
    prob_reports,
    prob_ub_paley_zygmund,
    ub_sim_by_pivot,
    ub_sim_by_size,
)

from .conftest import enumerate_instances, make_tuple, make_workload, naive_pair_probability, ts
from .test_cdd import cdd1, cdd2


def mine_rules(repo, dist):
    try:
        return detect_cdds(repo, dist)
    except NoRulesFound:
        return []


def make_config(d, window, rho=0.6, alpha=0.2, keywords=("topic0",)):
    return QueryConfig(
        keywords=frozenset(keywords), d=d, rho=rho, alpha=alpha, window_size=window
    )


class TestReferenceValues:
    """Hand-checkable worked examples, reproduced exactly and in under a second."""

    def test_all_reference_values(self, numeric_repo, absdiff):
        t0 = time.perf_counter()
        r = make_tuple("r", 0, 1, ts("a1"), ts("0.3"), None)

        single = dict(impute_multi_rule(r, [cdd1()], numeric_repo, absdiff))
        assert single[ts("0.1")] == pytest.approx(2 / 4, abs=1e-9)
        assert single[ts("0.2")] == pytest.approx(2 / 4, abs=1e-9)

        pooled = dict(impute_multi_rule(r, [cdd1(), cdd2()], numeric_repo, absdiff))
        assert pooled[ts("0.1")] == pytest.approx(2 / 6, abs=1e-9)
        assert pooled[ts("0.2")] == pytest.approx(3 / 6, abs=1e-9)
        assert pooled[ts("0.35")] == pytest.approx(1 / 6, abs=1e-9)

        size_ub = ub_sim_by_size([(10, 10), (7, 7), (5, 7)], [(8, 8), (10, 10), (10, 12)])
        assert size_ub == pytest.approx(2.2, abs=1e-9)

        pivot_ub = ub_sim_by_pivot(
            [(0.3, 0.3), (0.3, 0.3), (0.1, 0.2)], [(0.7, 0.7), (0.8, 0.8), (0.7, 0.9)]
        )
        assert pivot_ub == pytest.approx(1.6, abs=1e-9)

        prob_ub = prob_ub_paley_zygmund((0.7, 0.3, 1.1), (1.2, 1.1, 1.3), d=3, gamma=2.8)
        assert prob_ub == pytest.approx(0.82, abs=1e-9)

        assert time.perf_counter() - t0 < 1.0


# (seed, n_streams, d, window, xi, m) — spans stream counts, widths, window
# sizes 50/100/200, missing rates 0.1/0.3/0.5, and 1 or 2 holes per tuple.
EQUIVALENCE_WORKLOADS = [
    (100, 2, 3, 50, 0.1, 1),
    (101, 2, 3, 100, 0.3, 1),
    (102, 2, 3, 200, 0.5, 1),
    (103, 2, 3, 50, 0.5, 2),
    (104, 2, 3, 100, 0.1, 2),
    (105, 2, 3, 200, 0.3, 2),
    (106, 2, 4, 50, 0.3, 1),
    (107, 2, 4, 100, 0.5, 1),
    (108, 2, 4, 200, 0.1, 1),
    (109, 2, 4, 50, 0.1, 2),
    (110, 2, 4, 100, 0.3, 2),
    (111, 2, 4, 200, 0.5, 2),
    (112, 3, 3, 50, 0.3, 1),
    (113, 3, 3, 100, 0.5, 1),
    (114, 3, 3, 200, 0.1, 1),
    (115, 3, 3, 100, 0.5, 2),
    (116, 3, 4, 50, 0.5, 1),
    (117, 3, 4, 100, 0.1, 1),
    (118, 3, 4, 200, 0.3, 2),
    (119, 3, 4, 50, 0.1, 2),
]


class TestOracleEquivalence:
    """The indexed engine reports exactly what exhaustive evaluation reports."""

    def test_twenty_seeded_workloads(self):
        t0 = time.perf_counter()
        for seed, n, d, window, xi, m in EQUIVALENCE_WORKLOADS:
            repo, trace = make_workload(
                seed=seed, n_streams=n, d=d, length=25, vocab=50, topics=3,
                xi=xi, m=m, repo_size=30,
            )
            dist = DistanceFn()
            rules = mine_rules(repo, dist)
            pivots = select_pivots(repo, dist=dist)
            cfg = make_config(d=d, window=window)
            engine = Engine(repo, cfg, dist, mode=MODE_ENGINE, rules=rules, pivots=pivots)
            oracle = Engine(repo, cfg, dist, mode=MODE_ORACLE, rules=rules, pivots=pivots)
            got = engine.run(list(trace))
            want = oracle.run(list(trace))
            assert got.to_jsonl() == want.to_jsonl(), f"workload seed={seed}"
        assert time.perf_counter() - t0 < 120.0


class TestPruningSoundness:
    """No bound ever discards a qualifying pair, over >= 10,000 randomized pairs."""

    def test_no_false_dismissals_and_bounds_dominate(self):
        t0 = time.perf_counter()
        alpha = 0.2
        checked = 0
        for seed in (200, 201, 202, 203, 204, 205, 206):
            repo, trace = make_workload(
                seed=seed, n_streams=2, d=3, length=40, vocab=50, topics=3,
                xi=0.3, m=1, repo_size=30,
            )
            dist = DistanceFn()
            rules = mine_rules(repo, dist)
            by_dep = {}
            for rule in rules:
                by_dep.setdefault(rule.dependent, []).append(rule)
            pivots = select_pivots(repo, dist=dist)
            keywords = frozenset({"topic0"})
            gamma = 0.6 * repo.d
            summaries = [
                summarize(impute_tuple(r, by_dep, repo, dist), pivots, keywords, dist)
                for r in trace
            ]
            s0 = [s for s in summaries if s.stream_id == 0]
            s1 = [s for s in summaries if s.stream_id == 1]
            for a, b in product(s0, s1):
                exact = naive_pair_probability(a.imputed, b.imputed, gamma, keywords, dist)
                max_sim = max(
                    sum(dist.sim(x, y) for x, y in zip(ia.attrs, ib.attrs))
                    for ia, _ in enumerate_instances(a.imputed)
                    for ib, _ in enumerate_instances(b.imputed)
                )
                if keyword_prune(a, b):
                    assert exact == 0.0
                assert ub_sim_by_size(a.sizes, b.sizes) + 1e-9 >= max_sim
                assert ub_sim_by_pivot(a.box, b.box) + 1e-9 >= max_sim
                pz = prob_ub_paley_zygmund(a.pivot_stats, b.pivot_stats, repo.d, gamma)
                assert pz + 1e-9 >= exact
                pruned, confirmed = instance_level_scan(
                    a.imputed, b.imputed, gamma, alpha, keywords, dist
                )
                if pruned:
                    assert exact <= alpha + 1e-9
                assert confirmed <= exact + 1e-9
                verdict = judge_pair(a, b, gamma, alpha, keywords, dist)
                if verdict.stage == STAGE_REFINED:
                    assert verdict.prob == pytest.approx(exact, abs=1e-9)
                elif prob_reports(exact, alpha):
                    pytest.fail(
                        f"stage {verdict.stage} dismissed a pair with probability {exact}"
                    )
                checked += 1
        assert checked >= 10_000
        assert time.perf_counter() - t0 < 60.0


class TestPruningPower:
    """The cascade settles >= 90% of cross-stream pairs before refinement."""

    def test_cascade_eliminates_most_pairs(self):
        repo, trace = make_workload(
            seed=400, n_streams=2, d=3, length=60, vocab=60, topics=8,
            xi=0.3, m=1, repo_size=80,
        )
        vocab_tokens = set()
        for s in repo.samples:
            for v in s.attrs:
                vocab_tokens |= v
        keywords = frozenset({"topic0"})
        assert len(keywords) <= 0.2 * len(vocab_tokens)
        cfg = make_config(d=3, window=30, keywords=keywords)
        engine = Engine(repo, cfg, mode=MODE_ENGINE)
        engine.run(list(trace))
        m = engine.metrics()
        assert m["pairs_considered"] > 0
        assert m["pruning_power"] >= 0.90
        fractions = m["pruning_power_by_stage"]
        assert fractions["keyword"] == max(fractions.values())
        assert sum(fractions.values()) == pytest.approx(m["pruning_power"], abs=1e-9)
        refined = m["stage_counts"]["refined"]
        assert refined <= 0.10 * m["pairs_considered"]


class TestIndexedSpeedup:
    """Indexes cut the mean per-step wall clock by >= 10x over linear scans."""

    def test_engine_ten_times_faster_than_noindex(self):
        t0 = time.perf_counter()
        repo, trace = make_workload(
            seed=300, n_streams=2, d=4, length=400, vocab=120, topics=16,
            xi=0.1, m=1, repo_size=1200,
        )
        cfg = make_config(d=4, window=1000)
        dist = DistanceFn()
        rules = mine_rules(repo, dist)
        pivots = select_pivots(repo, dist=dist)
        fast = Engine(repo, cfg, dist, mode=MODE_ENGINE, rules=rules, pivots=pivots)
        slow = Engine(repo, cfg, dist, mode=MODE_NOINDEX, rules=rules, pivots=pivots)
        got = fast.run(list(trace))
        want = slow.run(list(trace))
        assert got.to_jsonl() == want.to_jsonl()
        mean_fast = fast.metrics()["step_wall_clock"]["mean"]
        mean_slow = slow.metrics()["step_wall_clock"]["mean"]
        assert mean_fast > 0.0
        assert mean_slow / mean_fast >= 10.0, (
            f"speedup only {mean_slow / mean_fast:.1f}x "
            f"({mean_slow * 1e3:.2f}ms vs {mean_fast * 1e3:.2f}ms)"
        )
        assert time.perf_counter() - t0 < 300.0


class TestPivotModel:
    """Entropy stays in range and the main pivot is the exhaustive argmax."""

    def test_defaults_wired(self):
        assert DEFAULT_P == 10
        assert DEFAULT_EMIN == 1.5
        repo, _ = make_workload(seed=500, length=10, repo_size=20)
        pivots = select_pivots(repo)
        assert pivots.bucket_count == 10
        assert pivots.entropy_threshold == 1.5
        assert pivots.max_pivots == DEFAULT_CNTMAX

    def test_entropy_range_and_main_pivot_argmax(self):
        repo, _ = make_workload(seed=501, length=30, vocab=50, repo_size=60)
        dist = DistanceFn()
        pivots = select_pivots(repo, dist=dist)
        h_max = math.log2(DEFAULT_P)
        for attr in range(repo.d):
            domain = repo.domain(attr)
            assert len(domain) <= 200
            scores = {v: entropy(v, attr, repo, DEFAULT_P, dist) for v in domain}
            for h in scores.values():
                assert -1e-9 <= h <= h_max + 1e-9
            best = max(scores.values())
            assert scores[pivots.main(attr)] == pytest.approx(best, abs=1e-9)


class TestWindowSemantics:
    """A w=3 scripted trace expires exactly the right tuples at every step."""

    def test_scripted_trace(self):
        repo, _ = make_workload(seed=600, length=10, repo_size=20)
        cfg = make_config(d=3, window=3, alpha=0.0)
        engine = Engine(repo, cfg, mode=MODE_ORACLE)
        rows = {
            (sid, t): make_tuple(
                f"s{sid}t{t}", sid, t, ts("topic0"), ts("pad"), ts(f"v{t}")
            )
            for sid in (0, 1)
            for t in range(1, 7)
        }
        for t in range(1, 7):
            events = engine.step(t, [rows[(0, t)], rows[(1, t)]])
            expires = sorted(e.rid_a for e in events if e.kind == KIND_EXPIRE)
            if t <= 3:
                assert expires == []
            else:
                assert expires == [f"s0t{t - 3}", f"s1t{t - 3}"]
            live = set(engine.summaries)
            expected_live = {
                f"s{sid}t{u}" for sid in (0, 1) for u in range(max(1, t - 2), t + 1)
            }
            assert live == expected_live
            for e in events:
                if e.kind == KIND_MATCH:
                    assert e.rid_a in live and e.rid_b in live


def _check_dr_invariants(index, repo, pivots, dist):
    """Each attribute's coordinates ascend and are, bit for bit, the main-pivot
    distances of the samples at their positions, which list each sample once;
    the key postings list, in domain order, the domain values that hold each
    similarity key, and the value postings each sample's position once."""
    assert list(map(id, index.samples)) == list(map(id, repo.samples))
    assert len(index.by_coord) == len(index.by_key) == len(index.by_value) == repo.d
    n = len(repo.samples)
    for x, (coords, positions) in enumerate(index.by_coord):
        assert sorted(positions) == list(range(n))
        assert all(a <= b for a, b in zip(coords, coords[1:]))
        main = pivots.main(x)
        assert [c.hex() for c in coords] == [dist(repo.samples[i].attrs[x], main).hex() for i in positions]
        keys, values = {}, {}
        for v in repo.domain(x):
            for key in dist.keys(v):
                keys.setdefault(key, []).append(v)
        for i, s in enumerate(repo.samples):
            values.setdefault(s.attrs[x], []).append(i)
        assert index.by_key[x] == keys
        assert {v: sorted(ids) for v, ids in index.by_value[x].items()} == values
    return n


def _check_cdd_invariants(index, rules):
    """Every rule of the dependent sits in exactly one bucket, the one keyed by
    its own shape (determinant attributes in order, and which are constants)
    and constant values."""
    from teride.cdd import CONST

    placed = [(key, rule) for key, bucket in index.buckets.items() for rule in bucket]
    assert sorted(id(rule) for _, rule in placed) == sorted(map(id, rules))
    for (shape, values), rule in placed:
        assert rule.dependent == index.dependent
        by_attr = {c.attr: c for c in rule.determinants}
        consts = tuple(x for x in sorted(by_attr) if by_attr[x].kind == CONST)
        assert shape == (tuple(sorted(by_attr)), consts)
        assert values == tuple(by_attr[x].value for x in consts)
    return len(placed)


def _check_grid_invariants(grid, peak):
    """What insert and evict maintain, given the most tuples ever live at once."""
    live, slots, occupied = grid._live, grid._slots, grid._occupied
    # slots are recycled, so no slot index reaches the peak live count
    assert len(slots) <= peak
    assert occupied.bit_count() == len(live)
    for rid, slot in live.items():
        assert occupied >> slot & 1 and slots[slot].rid == rid
    # the per-stream bitmaps are disjoint and cover the live slots, and each
    # live slot's bit sits in the bitmap of its summary's stream
    streams = grid._streams
    assert sum(mask.bit_count() for mask in streams.values()) == occupied.bit_count()
    union = 0
    for mask in streams.values():
        union |= mask
    assert union == occupied
    for slot in live.values():
        assert streams[slots[slot].stream_id] >> slot & 1
    held = set(live.values())
    assert all(s is None for slot, s in enumerate(slots) if slot not in held)
    assert grid._kw_mask == sum(1 << slot for slot in held if slots[slot].keywords)
    for x, post in enumerate(grid._postings):
        for tok, mask in post.items():
            assert mask and not mask & ~occupied, (x, tok)
        unions: dict = {}
        for slot in held:
            for tok in slots[slot].imputed.token_unions()[x]:
                unions[tok] = unions.get(tok, 0) | 1 << slot
        assert post == unions, x


class TestStructuralInvariants:
    """The DR-index's coordinates and postings hold each sample once, each rule
    sits in the bucket of its shape and constants, and a grid's slot table,
    bitmaps and token postings are exactly those of its live tuples, after
    randomized operations."""

    def test_index_coordinates_postings_and_buckets_hold_each_sample_and_rule(self):
        repo, _ = make_workload(seed=700, length=40, vocab=50, topics=3, repo_size=80)
        dist = DistanceFn()
        pivots = select_pivots(repo, dist=dist)
        dr = build_dr_index(repo, pivots, dist)
        assert _check_dr_invariants(dr, repo, pivots, dist) == len(repo.samples)
        rules = mine_rules(repo, dist)
        assert rules
        by_dep = {}
        for rule in rules:
            by_dep.setdefault(rule.dependent, []).append(rule)
        indexed = 0
        for j, js_rules in by_dep.items():
            indexed += _check_cdd_invariants(build_cdd_index(js_rules), js_rules)
        assert indexed == len(rules)

    def test_grid_invariants_after_randomized_ops(self):
        repo, trace = make_workload(
            seed=701, n_streams=3, d=3, length=350, vocab=60, topics=4,
            xi=0.3, m=1, repo_size=60,
        )
        dist = DistanceFn()
        rules = mine_rules(repo, dist)
        by_dep = {}
        for rule in rules:
            by_dep.setdefault(rule.dependent, []).append(rule)
        pivots = select_pivots(repo, dist=dist)
        keywords = frozenset({"topic0"})
        summaries = [
            summarize(impute_tuple(r, by_dep, repo, dist), pivots, keywords, dist)
            for r in trace
        ]
        rng = random.Random(9)
        grid = ErGrid(d=repo.d)
        live = []
        peak = 0
        ops = 0
        pending = list(summaries)
        while pending or live:
            if pending and (not live or rng.random() < 0.6):
                s = pending.pop()
                grid.insert(s)
                live.append(s)
                peak = max(peak, len(live))
            else:
                victim = live.pop(rng.randrange(len(live)))
                grid.evict(victim.rid)
            ops += 1
            if ops % 250 == 0:
                _check_grid_invariants(grid, peak)
        assert ops >= 1000
        assert len(grid) == 0 and grid._occupied == 0 and grid._kw_mask == 0
        assert sorted(grid._streams) == [0, 1, 2] and not any(grid._streams.values())
        assert not any(grid._postings)
        _check_grid_invariants(grid, peak)

    def test_insert_then_evict_restores_grid_exactly(self):
        repo, trace = make_workload(seed=702, length=40, repo_size=40, xi=0.3, m=1)
        dist = DistanceFn()
        rules = mine_rules(repo, dist)
        by_dep = {}
        for rule in rules:
            by_dep.setdefault(rule.dependent, []).append(rule)
        pivots = select_pivots(repo, dist=dist)
        summaries = [
            summarize(impute_tuple(r, by_dep, repo, dist), pivots, frozenset({"topic0"}), dist)
            for r in trace
        ]

        def rid_state(grid):
            """The live summaries, keyword-bearing rids and postings, by rid."""
            return (
                {rid: grid._slots[slot] for rid, slot in grid._live.items()},
                {s.rid for s in grid._summaries(grid._kw_mask)},
                [
                    {tok: {s.rid for s in grid._summaries(mask)} for tok, mask in post.items()}
                    for post in grid._postings
                ],
            )

        grid = ErGrid(d=repo.d)
        for s in summaries[:30]:
            grid.insert(s)
        before = rid_state(grid)
        assert before[1] and any(before[2])
        for s in summaries[30:40]:
            grid.insert(s)
        for s in summaries[30:40]:
            grid.evict(s.rid)
        _check_grid_invariants(grid, peak=40)
        assert rid_state(grid) == before
