import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import teride
from teride.cdd import CONST, INTERVAL, AttrConstraint, CddRule, detect_cdds, rules_from_text
from teride.engine import (
    KIND_EXPIRE,
    KIND_MATCH,
    MODE_ENGINE,
    MODE_NOINDEX,
    MODE_ORACLE,
    MODES,
    Engine,
    Event,
    precompute,
)
from teride.errors import ConfigError, DuplicateTuple, NoRulesFound, OutOfOrderArrival
from teride.grid import token_need
from teride.metric import DistanceFn
from teride.model import QueryConfig
from teride.pivot import PivotSet, select_pivots

from .conftest import make_tuple, make_workload, ts


def make_config(d=3, rho=0.6, alpha=0.2, window=10, keywords=("topic0",)):
    return QueryConfig(
        keywords=frozenset(keywords), d=d, rho=rho, alpha=alpha, window_size=window
    )


class TestPrecompute:
    def test_builds_rules_pivots_and_indexes(self):
        repo, _ = make_workload(seed=51, length=15, repo_size=30)
        pre = precompute(repo, make_config(), DistanceFn())
        assert pre.rules
        assert pre.pivots.d == repo.d
        # the indexes belong to the engine mode's fetcher, one rule tree per dependent
        fetch = Engine(repo, make_config(), mode=MODE_ENGINE).fetch
        assert fetch.dr_index is not None
        assert set(fetch.cdd_indexes) == set(pre.rules_by_dep)

    def test_schema_mismatch_rejected(self):
        repo, _ = make_workload(seed=51, length=15, repo_size=30)
        with pytest.raises(ConfigError):
            precompute(repo, make_config(d=4), DistanceFn())
        # rules and pivots read from files must fit the repository's d = 3
        rules = rules_from_text("DEP=0 | 1:INT:0.0,0.1 -> [0.0,0.1]\n")
        pivots = select_pivots(repo, dist=DistanceFn())
        precompute(repo, make_config(), DistanceFn(), rules=rules, pivots=pivots)
        bad_rules = [
            "DEP=0 | 5:INT:0.0,0.1 -> [0.0,0.1]",
            "DEP=3 | 1:INT:0.0,0.1 -> [0.0,0.1]",
            "DEP=0 | -1:INT:0.0,0.1 -> [0.0,0.1]",
        ]
        bad_pivots = [
            PivotSet(per_attr=pivots.per_attr[:1]),
            PivotSet(per_attr=pivots.per_attr + [[ts("w1")]]),
            PivotSet(per_attr=[pivots.per_attr[0], [], pivots.per_attr[2]]),
        ]
        for mode in (MODE_ENGINE, MODE_NOINDEX, MODE_ORACLE):
            for text in bad_rules:
                with pytest.raises(ConfigError):
                    Engine(repo, make_config(), mode=mode, rules=rules_from_text(text), pivots=pivots)
            for bad in bad_pivots:
                with pytest.raises(ConfigError):
                    Engine(repo, make_config(), mode=mode, pivots=bad)

    def test_given_rules_and_pivots_are_checked_once(self, schema_checks):
        repo, _ = make_workload(seed=51, length=15, repo_size=30)
        rules = rules_from_text("DEP=0 | 1:INT:0.0,0.1 -> [0.0,0.1]\n")
        pivots = select_pivots(repo, dist=DistanceFn())
        Engine(repo, make_config(), rules=rules, pivots=pivots)
        assert schema_checks == {"check_rules": 1, "check_pivots": 1}
        with pytest.raises(ConfigError, match="outside"):
            Engine(repo, make_config(), rules=rules_from_text("DEP=3 | 1:INT:0.0,0.1 -> [0.0,0.1]\n"))
        with pytest.raises(ConfigError, match="do not give"):
            Engine(repo, make_config(), rules=rules, pivots=PivotSet(per_attr=pivots.per_attr[:1]))
        assert schema_checks == {"check_rules": 3, "check_pivots": 2}

    @pytest.mark.parametrize("kind", [DistanceFn.JACCARD, DistanceFn.ABSDIFF])
    def test_selects_main_pivots_only(self, kind):
        """Online code reads only the main pivots, so an engine given no pivot
        file selects those alone, and writes the events of one handed the
        auxiliary pivots too."""
        repo, trace = make_workload(seed=31, d=4, length=30, repo_size=40, xi=0.5, m=2)
        dist = DistanceFn(kind)
        full = select_pivots(repo, dist=dist)
        assert any(full.n_pivots(x) > 1 for x in range(repo.d))
        rules = detect_cdds(repo, dist)
        cfg = make_config(d=4, window=7)
        for mode in MODES:
            engine = Engine(repo, cfg, dist, mode, rules=rules)
            pivots = engine.pre.pivots
            assert pivots.per_attr == [[full.main(x)] for x in range(repo.d)]
            assert all(pivots.n_pivots(x) == 1 for x in range(repo.d))
            events = engine.run(list(trace)).to_jsonl()
            handed = Engine(repo, cfg, dist, mode, rules=rules, pivots=full)
            assert handed.pre.pivots is full
            assert events == handed.run(list(trace)).to_jsonl(), mode
            assert '"kind": "match"' in events, mode

    @pytest.mark.parametrize("mode", [MODE_ENGINE, MODE_NOINDEX, MODE_ORACLE])
    @pytest.mark.parametrize("where", ["main", "aux"])
    def test_empty_pivot_rejected(self, mode, where):
        # an empty auxiliary pivot is read only by the pair bounds, mid-step,
        # so precompute is where it must be caught
        repo, _ = make_workload(seed=51, length=15, repo_size=30)
        per_attr = [list(p) for p in select_pivots(repo, dist=DistanceFn()).per_attr]
        if where == "main":
            per_attr[1][0] = frozenset()
        else:
            per_attr[1].append(frozenset())
        with pytest.raises(ConfigError, match="empty token set"):
            Engine(repo, make_config(), mode=mode, pivots=PivotSet(per_attr=per_attr))


class TestModesAgree:
    @pytest.mark.parametrize("seed", [61, 62, 63])
    def test_all_three_modes_produce_identical_events(self, seed):
        repo, trace = make_workload(seed=seed, length=20, repo_size=30, xi=0.4, m=1)
        cfg = make_config(window=7)
        # the shared-key filter prunes under both distances
        for kind in (DistanceFn.JACCARD, DistanceFn.ABSDIFF):
            logs = {}
            metrics = {}
            for mode in (MODE_ENGINE, MODE_NOINDEX, MODE_ORACLE):
                engine = Engine(repo, cfg, dist=DistanceFn(kind), mode=mode)
                logs[mode] = engine.run(list(trace))
                metrics[mode] = engine.metrics()
            assert logs[MODE_ENGINE].to_jsonl() == logs[MODE_ORACLE].to_jsonl(), kind
            assert logs[MODE_NOINDEX].to_jsonl() == logs[MODE_ORACLE].to_jsonl(), kind
            assert logs[MODE_ORACLE].matches(), kind
            # engine and noindex differ only in how candidates are fetched
            for key in ("stage_counts", "pairs_considered"):
                assert metrics[MODE_ENGINE][key] == metrics[MODE_NOINDEX][key], (kind, key)

    @pytest.mark.parametrize("kind", [DistanceFn.JACCARD, DistanceFn.ABSDIFF])
    def test_no_step_reads_or_builds_a_grid_cell(self, kind):
        """Retrieval reads the grid's slot bitmaps and key postings only, and
        a run with evictions gives the events of ``oracle``."""
        repo, trace = make_workload(seed=61, length=20, repo_size=30, xi=0.4, m=1)
        cfg = make_config(window=7)
        oracle = Engine(repo, cfg, dist=DistanceFn(kind), mode=MODE_ORACLE).run(list(trace))
        results = Engine(repo, cfg, dist=DistanceFn(kind), mode=MODE_ENGINE).run(list(trace))
        assert any(e.kind == KIND_EXPIRE for e in results.events)
        assert oracle.matches()
        assert results.to_jsonl() == oracle.to_jsonl()

    @pytest.mark.parametrize("mode", [MODE_ENGINE, MODE_NOINDEX])
    def test_refinement_makes_no_second_pass(self, mode, monkeypatch):
        """An unpruned instance-level scan is the refinement: the cascade
        reports its sum and never calls ``pair_probability``."""
        import teride.engine
        import teride.prune

        def no_second_pass(*args):
            raise AssertionError("a refined pair was enumerated twice")

        repo, trace = make_workload(seed=61, length=20, repo_size=30, xi=0.4, m=1)
        cfg = make_config(window=7)
        oracle = Engine(repo, cfg, mode=MODE_ORACLE).run(list(trace))
        monkeypatch.setattr(teride.engine, "pair_probability", no_second_pass)
        monkeypatch.setattr(teride.prune, "pair_probability", no_second_pass)
        engine = Engine(repo, cfg, mode=mode)
        results = engine.run(list(trace))
        assert engine.stage_counts["refined"] and oracle.matches()
        assert results.to_jsonl() == oracle.to_jsonl()

    @pytest.mark.parametrize("kind", [DistanceFn.JACCARD, DistanceFn.ABSDIFF])
    def test_served_rules_impute_as_every_rule_does(self, kind, monkeypatch):
        """The index fetcher hands imputation only the candidate rules it served
        samples, and every tuple it imputes equals its imputation from all rules."""
        import teride.engine
        from teride.impute import impute_tuple

        repo, trace = make_workload(seed=65, length=30, repo_size=40, xi=0.6, m=1)
        engine = Engine(repo, make_config(window=7), dist=DistanceFn(kind), mode=MODE_ENGINE)
        seen = {"tuples": 0, "served": 0, "candidates": 0, "ruled": 0}

        def checked(r, rules_by_dep, repo, dist, samples_per_rule, dr_index):
            got = impute_tuple(r, rules_by_dep, repo, dist, samples_per_rule, dr_index)
            assert got == impute_tuple(r, engine.pre.rules_by_dep, repo, dist), r.rid
            seen["tuples"] += 1
            seen["served"] += sum(map(len, rules_by_dep.values()))
            seen["candidates"] += len(samples_per_rule)
            seen["ruled"] += len(got.per_attr_candidates) > len(got.fallback_attrs)
            assert all(samples_per_rule[rule] for rules in rules_by_dep.values() for rule in rules)
            return got

        monkeypatch.setattr(teride.engine, "impute_tuple", checked)
        engine.run(list(trace))
        # some tuples are imputed from rules, and under both distances an
        # interval determinant restricts the samples, so some candidate rules
        # are not served
        assert seen["tuples"] and seen["ruled"], seen
        assert seen["served"] < seen["candidates"], seen

    def test_results_only_pair_cross_stream(self):
        repo, trace = make_workload(seed=64, n_streams=3, length=15, repo_size=30)
        cfg = make_config(window=6)
        engine = Engine(repo, cfg)
        results = engine.run(trace)
        streams = {r.rid: r.stream_id for r in trace}
        for e in results.matches():
            assert streams[e.rid_a] != streams[e.rid_b]
            assert prob_in_range(e.prob)


# at every d from 2 to 5 these reach every token_need level, 1 to d
FUZZ_RHOS = (0.1, 0.3, 0.5, 0.7, 0.9)


def test_fuzz_rhos_reach_every_token_need_level():
    for d in range(2, 6):
        assert {token_need(d, rho * d) for rho in FUZZ_RHOS} == set(range(1, d + 1))


@st.composite
def drawn_queries(draw):
    """A small workload and a query over it: d, stream count, missing rate and
    holes per tuple (up to d - 1), rho, alpha, window, distance kind and
    keywords, some of which no value holds."""
    d = draw(st.integers(2, 5))
    repo, trace = make_workload(
        seed=draw(st.integers(0, 10_000)),
        n_streams=draw(st.integers(2, 3)),
        d=d,
        length=draw(st.integers(4, 20)),
        vocab=30,
        topics=3,
        xi=draw(st.sampled_from((0.0, 0.3, 0.6))),
        m=draw(st.integers(1, d - 1)),
        repo_size=draw(st.integers(10, 40)),
    )
    cfg = make_config(
        d=d,
        rho=draw(st.sampled_from(FUZZ_RHOS)),
        alpha=draw(st.sampled_from((0.0, 0.2, 0.5))),
        window=draw(st.integers(1, 8)),
        keywords=draw(st.sampled_from((("topic0",), ("topic1", "absent"), ("absent",)))),
    )
    return repo, trace, cfg, DistanceFn(draw(st.sampled_from((DistanceFn.JACCARD, DistanceFn.ABSDIFF))))


def assert_three_modes_agree(repo, trace, cfg, dist, rules):
    """``engine``, ``noindex`` and ``oracle`` write byte-identical events, and
    ``engine`` and ``noindex``, which differ only in fetching, count each stage alike."""
    pivots = select_pivots(repo, dist=dist)
    logs, metrics = {}, {}
    for mode in (MODE_ENGINE, MODE_NOINDEX, MODE_ORACLE):
        engine = Engine(repo, cfg, dist=dist, mode=mode, rules=rules, pivots=pivots)
        logs[mode] = engine.run(list(trace)).to_jsonl()
        metrics[mode] = engine.metrics()
    assert logs[MODE_ENGINE] == logs[MODE_ORACLE]
    assert logs[MODE_NOINDEX] == logs[MODE_ORACLE]
    for key in ("stage_counts", "pairs_considered"):
        assert metrics[MODE_ENGINE][key] == metrics[MODE_NOINDEX][key], key


@settings(max_examples=150, deadline=None)
@given(query=drawn_queries())
def test_three_modes_agree_on_drawn_queries(query):
    repo, trace, cfg, dist = query
    try:
        rules = detect_cdds(repo, dist)
    except NoRulesFound:
        rules = []
    assert_three_modes_agree(repo, trace, cfg, dist, rules)


@st.composite
def hand_built_rules(draw, repo, trace):
    """A rule on one or two determinants, each a constant or a distance
    interval, some of which admit 1.0.  Each constant is a repository value:
    the one an anchor tuple drawn from the trace holds, if the repository
    holds it too, so that tuples meet one- and two-constant rules."""
    anchor = draw(st.sampled_from([r for r in trace if not r.is_complete()] or trace))
    j = draw(st.sampled_from(anchor.missing or range(repo.d)))
    xs = draw(st.lists(st.sampled_from([x for x in range(repo.d) if x != j]), min_size=1, max_size=2, unique=True))
    dets = []
    for x in xs:
        kind = draw(st.sampled_from(("const", "interval", "admits-1")))
        if kind == "const":
            held = anchor.attrs[x] in repo.domain(x)
            value = anchor.attrs[x] if held else draw(st.sampled_from(sorted(repo.domain(x), key=sorted)))
            dets.append(AttrConstraint(attr=x, kind=CONST, value=value))
        else:
            hi = 1.0 if kind == "admits-1" else draw(st.sampled_from((0.2, 0.5, 0.8)))
            lo = draw(st.sampled_from((0.0, hi / 2)))
            dets.append(AttrConstraint(attr=x, kind=INTERVAL, lo=lo, hi=hi))
    dep_hi = draw(st.sampled_from((0.0, 0.2, 0.5, 1.0)))
    return CddRule(determinants=tuple(dets), dependent=j, dep_lo=0.0, dep_hi=dep_hi)


@settings(max_examples=150, deadline=None)
@given(query=drawn_queries(), data=st.data())
def test_three_modes_agree_on_hand_built_rules(query, data):
    repo, trace, cfg, dist = query
    rules = data.draw(st.lists(hand_built_rules(repo, trace), min_size=1, max_size=12))
    assert_three_modes_agree(repo, trace, cfg, dist, rules)


# one rule per dependent whose determinant and dependent intervals are both
# [0, 1]: every domain value is a candidate for every hole, so a tuple with m
# holes has the product of m domains as its instances
WIDE_RULES = "".join(f"DEP={j} | {(j + 1) % 5}:INT:0.0,1.0 -> [0.0,1.0]\n" for j in range(5))

# the m=3 query of TestManyHoles in a fresh process, built as make_workload
# builds it, printing the engine run's seconds and the process's peak RSS in KB
_WIDE_RUN = """
import json, resource, sys, time
from teride.cdd import rules_from_text
from teride.cli import gen_synthetic, inject_missing
from teride.engine import Engine
from teride.metric import DistanceFn
from teride.model import QueryConfig, Repository
rows, streams = gen_synthetic(d=5, n_streams=2, length=10, vocab_size=30, topic_count=3, seed=3, repo_size=30)
trace = inject_missing([t for s in streams for t in s], 0.6, 3, seed=4)
cfg = QueryConfig(keywords=frozenset({"topic0"}), d=5, rho=0.6, alpha=0.2, window_size=10)
t0 = time.perf_counter()
Engine(Repository(rows), cfg, DistanceFn(), "engine", rules=rules_from_text(sys.argv[1])).run(trace)
print(json.dumps([time.perf_counter() - t0, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss]))
"""


class TestManyHoles:
    """Three and four holes per tuple under rules that admit every value: the
    match probability must not cost the product of the holes' candidates."""

    @pytest.mark.parametrize("m", [3, 4])
    def test_three_modes_agree(self, m):
        repo, trace = make_workload(seed=3, d=5, length=10, vocab=30, repo_size=30, xi=0.6, m=m)
        cfg = make_config(d=5, rho=0.6, alpha=0.2, window=10)
        assert_three_modes_agree(repo, trace, cfg, DistanceFn(), rules_from_text(WIDE_RULES))

    def test_engine_run_is_bounded(self):
        src = str(Path(teride.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        out = subprocess.run(
            [sys.executable, "-c", _WIDE_RUN, WIDE_RULES],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        seconds, peak_kb = json.loads(out.stdout)
        assert seconds < 5.0
        assert peak_kb / 1024 < 150.0


def prob_in_range(p):
    return 0.0 <= p <= 1.0 + 1e-9


def window_rids(engine):
    """Each stream's live rids, oldest first."""
    return {sid: [s.rid for s in q] for sid, q in engine.windows.items()}


class TestWindowSemantics:
    def test_eviction_at_capacity(self):
        repo, _ = make_workload(seed=71, length=10, repo_size=20)
        engine = Engine(repo, make_config(window=2))
        assert engine.step(1, [topic_row("r1", 0, 1)]) == []
        assert engine.step(2, [topic_row("r2", 0, 2)]) == []
        events = engine.step(3, [topic_row("r3", 0, 3)])
        assert [e.rid_a for e in events if e.kind == KIND_EXPIRE] == ["r1"]
        assert window_rids(engine) == {0: ["r2", "r3"]}
        assert set(engine.summaries) == {"r2", "r3"}

    def test_streams_evict_independently_at_window_1(self):
        repo, _ = make_workload(seed=71, length=10, repo_size=20)
        engine = Engine(repo, make_config(window=1))
        engine.step(1, [topic_row("a", 0, 1), topic_row("b", 1, 1)])
        assert window_rids(engine) == {0: ["a"], 1: ["b"]}
        events = engine.step(2, [topic_row("c", 1, 2)])
        assert [e.rid_a for e in events if e.kind == KIND_EXPIRE] == ["b"]
        assert window_rids(engine) == {0: ["a"], 1: ["c"]}
        assert set(engine.summaries) == {"a", "c"}

    def test_repeated_timestamp_on_a_stream_rejected(self):
        repo, _ = make_workload(seed=71, length=10, repo_size=20)
        engine = Engine(repo, make_config(window=3))
        engine.step(5, [topic_row("a", 0, 5)])
        with pytest.raises(OutOfOrderArrival):
            engine.step(5, [topic_row("b", 0, 5)])
        assert window_rids(engine) == {0: ["a"]}

    def test_scripted_expirations(self):
        repo, _ = make_workload(seed=71, length=10, repo_size=20)
        cfg = make_config(window=3, alpha=0.0)
        engine = Engine(repo, cfg, mode=MODE_ORACLE)
        rows = {
            (sid, t): make_tuple(f"s{sid}t{t}", sid, t, ts("topic0"), ts("pad"), ts(f"v{t}"))
            for sid in (0, 1)
            for t in range(1, 6)
        }
        for t in range(1, 6):
            events = engine.step(t, [rows[(0, t)], rows[(1, t)]])
            expires = [e for e in events if e.kind == KIND_EXPIRE]
            if t <= 3:
                assert expires == []
            else:
                assert sorted(e.rid_a for e in expires) == [
                    f"s0t{t - 3}",
                    f"s1t{t - 3}",
                ]
            live = set(engine.summaries)
            for e in expires:
                assert e.rid_a not in live
            for m in (e for e in events if e.kind == KIND_MATCH):
                assert m.rid_a in live and m.rid_b in live

    def test_same_stream_same_step_rejected(self):
        repo, _ = make_workload(seed=71, length=5, repo_size=10)
        engine = Engine(repo, make_config(window=3))
        a = make_tuple("a", 0, 1, ts("x"), ts("y"), ts("z"))
        b = make_tuple("b", 0, 1, ts("x"), ts("y"), ts("z"))
        with pytest.raises(OutOfOrderArrival, match=r"^stream 0: two arrivals at step 1, a and b$"):
            engine.step(1, [b, a])

    def test_wrong_timestamp_rejected(self):
        repo, _ = make_workload(seed=71, length=5, repo_size=10)
        engine = Engine(repo, make_config(window=3))
        a = make_tuple("a", 0, 2, ts("x"), ts("y"), ts("z"))
        with pytest.raises(ConfigError):
            engine.step(1, [a])


def engine_state(engine):
    """Everything a step may change, in comparable form."""
    # only the engine mode's fetcher keeps a grid
    grid = getattr(engine.fetch, "grid", None)
    return (
        window_rids(engine),
        dict(engine.summaries),
        None
        if grid is None
        else (
            dict(grid._live),
            list(grid._slots),
            grid._occupied,
            dict(grid._streams),
            grid._kw_mask,
            [
                {tok: {s.rid for s in grid._summaries(mask)} for tok, mask in post.items()}
                for post in grid._postings
            ],
        ),
        len(engine.results.events),
        dict(engine.stage_counts),
        engine.pairs_considered,
        engine.arrivals,
    )


def topic_row(rid, sid, t):
    return make_tuple(rid, sid, t, ts("topic0"), ts("pad"), ts(f"v{t}"))


class TestRejectedStepChangesNothing:
    @pytest.mark.parametrize("mode", [MODE_ENGINE, MODE_ORACLE])
    def test_late_arrival_on_full_window(self, mode):
        repo, _ = make_workload(seed=71, length=10, repo_size=20)
        engine = Engine(repo, make_config(window=3, alpha=0.0), mode=mode)
        for t in range(1, 5):
            engine.step(t, [topic_row(f"s0t{t}", 0, t), topic_row(f"s1t{t}", 1, t)])
        before = engine_state(engine)
        with pytest.raises(OutOfOrderArrival):
            engine.step(3, [topic_row("late", 0, 3)])
        assert engine_state(engine) == before
        events = engine.step(5, [topic_row("s0t5", 0, 5), topic_row("s1t5", 1, 5)])
        assert sorted(e.rid_a for e in events if e.kind == KIND_EXPIRE) == ["s0t2", "s1t2"]

    @pytest.mark.parametrize("mode", [MODE_ENGINE, MODE_ORACLE])
    def test_same_rid_live_on_two_streams(self, mode):
        repo, _ = make_workload(seed=71, length=10, repo_size=20)
        engine = Engine(repo, make_config(window=2, alpha=0.0), mode=mode)
        engine.step(1, [topic_row("x", 0, 1), topic_row("y", 1, 1)])
        before = engine_state(engine)
        with pytest.raises(DuplicateTuple):
            engine.step(2, [topic_row("x", 1, 2)])
        with pytest.raises(DuplicateTuple):
            engine.step(2, [topic_row("z", 0, 2), topic_row("z", 1, 2)])
        assert engine_state(engine) == before
        for t in range(2, 6):
            engine.step(t, [topic_row(f"a{t}", 0, t), topic_row(f"b{t}", 1, t)])

    def test_rid_of_tuple_expiring_in_same_step_may_return(self):
        repo, _ = make_workload(seed=71, length=10, repo_size=20)
        engine = Engine(repo, make_config(window=1, alpha=0.0))
        engine.step(1, [topic_row("x", 0, 1)])
        events = engine.step(2, [topic_row("y", 0, 2), topic_row("x", 1, 2)])
        assert [e.rid_a for e in events if e.kind == KIND_EXPIRE] == ["x"]
        assert set(engine.summaries) == {"x", "y"}


class TestWindowModel:
    """Random steps, rejected ones included, against a plain dict-of-lists window."""

    @pytest.mark.parametrize("window", [1, 2, 3])
    @pytest.mark.parametrize("mode", MODES)
    def test_random_steps_match_a_list_model(self, mode, window):
        repo, _ = make_workload(seed=71, length=10, repo_size=20)
        engine = Engine(repo, make_config(window=window, alpha=0.0), mode=mode)
        rng = random.Random(window)
        model = {}  # stream id -> live (rid, arrival time), oldest first
        used = []  # every rid offered so far
        clock = 0
        rejected = set()
        for _ in range(60):
            # a step before the clock is late on any stream that has arrived since
            ts = clock + 1 if rng.random() < 0.8 else rng.randint(1, clock + 1)
            batch = []
            for sid in sorted(rng.sample(range(3), rng.randint(1, 3))):
                # reuse an offered rid now and then: live, expiring, expired or twice in the batch
                rid = rng.choice(used) if used and rng.random() < 0.15 else f"s{sid}t{ts}n{len(used)}"
                used.append(rid)
                batch.append(topic_row(rid, sid, ts))
            # the model: order first, then duplicates, as the engine checks them
            victims = [model[r.stream_id][0][0] for r in batch if len(model.get(r.stream_id, ())) == window]
            live = {rid for q in model.values() for rid, _ in q} - set(victims)
            rids = [r.rid for r in batch]
            if any(model.get(r.stream_id) and model[r.stream_id][-1][1] >= ts for r in batch):
                expected = OutOfOrderArrival
            elif len(set(rids)) != len(rids) or live & set(rids):
                expected = DuplicateTuple
            else:
                expected = None
            if expected is not None:
                with pytest.raises(expected):
                    engine.step(ts, batch)
                rejected.add(expected)
            else:
                events = engine.step(ts, batch)
                assert [e.rid_a for e in events if e.kind == KIND_EXPIRE] == victims
                for r in batch:
                    q = model.setdefault(r.stream_id, [])
                    if len(q) == window:
                        q.pop(0)
                    q.append((r.rid, ts))
                clock = max(clock, ts)
            assert set(engine.summaries) == {rid for q in model.values() for rid, _ in q}
            assert window_rids(engine) == {sid: [rid for rid, _ in q] for sid, q in model.items()}
        assert rejected == {OutOfOrderArrival, DuplicateTuple}


class TestMetrics:
    def test_schema_and_consistency(self):
        repo, trace = make_workload(seed=81, length=20, repo_size=30, xi=0.3, m=1)
        engine = Engine(repo, make_config(window=8))
        engine.run(trace)
        m = engine.metrics()
        assert m["schema"] == 3
        assert m["mode"] == MODE_ENGINE
        assert m["arrivals"] == len(trace)
        settled = sum(m["stage_counts"].values())
        assert settled == m["pairs_considered"]
        assert 0.0 <= m["pruning_power"] <= 1.0
        assert set(m["timings"]) == {"rule_selection", "imputation", "er"}
        assert m["step_wall_clock"]["mean"] >= 0.0

    @pytest.mark.parametrize("mode", [MODE_ENGINE, MODE_NOINDEX])
    def test_layer_timings_fit_inside_step_time(self, mode):
        # mostly imputed arrivals, so rule selection counted twice would show
        repo, trace = make_workload(seed=82, length=20, repo_size=30, xi=0.9, m=1)
        engine = Engine(repo, make_config(window=8), mode=mode)
        engine.run(trace)
        assert all(v >= 0.0 for v in engine.timings.values())
        assert sum(engine.timings.values()) <= sum(engine.step_times)

    def test_pairs_considered_counts_live_cross_stream_tuples(self):
        window = 5
        repo, trace = make_workload(seed=82, n_streams=3, length=15, repo_size=30)
        by_ts = {}
        for r in trace:
            by_ts.setdefault(r.arrival_time, []).append(r)
        live = {}  # stream id -> live count
        expected = 0
        for t in sorted(by_ts):
            batch = sorted(by_ts[t], key=lambda r: (r.stream_id, r.rid))
            for r in batch:
                live[r.stream_id] = min(live.get(r.stream_id, 0), window - 1)
            for r in batch:
                expected += sum(n for sid, n in live.items() if sid != r.stream_id)
                live[r.stream_id] += 1
        for mode in (MODE_ENGINE, MODE_NOINDEX, MODE_ORACLE):
            engine = Engine(repo, make_config(window=window), mode=mode)
            engine.run(list(trace))
            assert engine.pairs_considered == expected, mode


class TestEvents:
    def test_json_round_trip(self):
        e = Event(ts=3, kind=KIND_MATCH, rid_a="a", rid_b="b", prob=1 / 3)
        import json

        rec = json.loads(e.to_json())
        assert rec == {"ts": 3, "kind": "match", "rid_a": "a", "rid_b": "b", "prob": 0.333333333333}

    def test_unknown_mode_rejected(self):
        repo, _ = make_workload(seed=91, length=5, repo_size=10)
        with pytest.raises(ConfigError):
            Engine(repo, make_config(), mode="turbo")
