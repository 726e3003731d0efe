import pytest

from teride.cdd import rules_from_text
from teride.engine import (
    KIND_EXPIRE,
    KIND_MATCH,
    MODE_ENGINE,
    MODE_NOINDEX,
    MODE_ORACLE,
    Engine,
    Event,
    precompute,
)
from teride.errors import ConfigError, DuplicateTuple, OutOfOrderArrival
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
        # the shared-token stage runs only under Jaccard
        for kind in (DistanceFn.JACCARD, DistanceFn.ABSDIFF):
            logs = {}
            metrics = {}
            for mode in (MODE_ENGINE, MODE_NOINDEX, MODE_ORACLE):
                engine = Engine(repo, cfg, dist=DistanceFn(kind), mode=mode)
                logs[mode] = engine.run(list(trace))
                metrics[mode] = engine.metrics()
            assert logs[MODE_ENGINE].diff(logs[MODE_ORACLE]) == [], kind
            assert logs[MODE_NOINDEX].diff(logs[MODE_ORACLE]) == [], kind
            assert logs[MODE_ORACLE].matches(), kind
            # engine and noindex differ only in how candidates are fetched
            for key in ("stage_counts", "pairs_considered"):
                assert metrics[MODE_ENGINE][key] == metrics[MODE_NOINDEX][key], (kind, key)

    def test_results_only_pair_cross_stream(self):
        repo, trace = make_workload(seed=64, n_streams=3, length=15, repo_size=30)
        cfg = make_config(window=6)
        engine = Engine(repo, cfg)
        results = engine.run(trace)
        streams = {r.rid: r.stream_id for r in trace}
        for e in results.matches():
            assert streams[e.rid_a] != streams[e.rid_b]
            assert prob_in_range(e.prob)


def prob_in_range(p):
    return 0.0 <= p <= 1.0 + 1e-9


class TestWindowSemantics:
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
        with pytest.raises(OutOfOrderArrival):
            engine.step(1, [a, b])

    def test_wrong_timestamp_rejected(self):
        repo, _ = make_workload(seed=71, length=5, repo_size=10)
        engine = Engine(repo, make_config(window=3))
        a = make_tuple("a", 0, 2, ts("x"), ts("y"), ts("z"))
        with pytest.raises(ConfigError):
            engine.step(1, [a])


def engine_state(engine):
    """Everything a step may change, in comparable form."""
    return (
        [r.rid for r in engine.window.live()],
        dict(engine.summaries),
        # only the engine mode's fetcher keeps grids
        {sid: grid.snapshot() for sid, grid in getattr(engine.fetch, "grids", {}).items()},
        len(engine.results.events),
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


class TestMetrics:
    def test_schema_and_consistency(self):
        repo, trace = make_workload(seed=81, length=20, repo_size=30, xi=0.3, m=1)
        engine = Engine(repo, make_config(window=8))
        engine.run(trace)
        m = engine.metrics()
        assert m["schema"] == 2
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
