"""Long-stream and adversarial-input properties of the three engine modes."""

from __future__ import annotations

import dataclasses
import gc
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teride.engine import MODE_ENGINE, MODE_NOINDEX, MODE_ORACLE, MODES, Engine
from teride.errors import TerideError

from .conftest import make_workload
from .test_engine import make_config


def by_arrival(trace) -> list:
    """``(ts, batch)`` steps in arrival order."""
    steps: dict = {}
    for r in trace:
        steps.setdefault(r.arrival_time, []).append(r)
    return sorted(steps.items())


class TestBoundedMemory:
    def test_live_state_does_not_grow_with_the_stream(self):
        repo, trace = make_workload(
            seed=900, n_streams=2, d=4, length=1500, vocab=120, topics=16, xi=0.6, repo_size=60
        )
        engine = Engine(repo, make_config(d=4, window=20))
        steps = by_arrival(trace)
        assert len(steps) == 1500
        tracemalloc.start()
        try:
            for ts, batch in steps[:500]:
                engine.step(ts, batch)
            gc.collect()
            at_500 = tracemalloc.get_traced_memory()[0]
            for ts, batch in steps[500:]:
                engine.step(ts, batch)
            gc.collect()
            at_1500 = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # what remains per step is the event log and the step-time list
        assert (at_1500 - at_500) / 1000 < 1024


# Each maker turns the valid batch of step ``ts`` (and the one before it)
# into a step the engine must reject; ``None`` where it cannot apply.

def stale_timestamp(ts, batch, prev):
    if prev is None:
        return None
    r = batch[0]
    return ts - 1, [dataclasses.replace(r, rid=r.rid + "-stale", arrival_time=ts - 1)]


def live_rid_again(ts, batch, prev):
    # the previous arrival on another stream stays live: nothing arrives there
    if prev is None:
        return None
    r = batch[0]
    live = next(p for p in prev if p.stream_id != r.stream_id)
    return ts, [dataclasses.replace(r, rid=live.rid)]


def two_on_one_stream(ts, batch, prev):
    r = batch[0]
    return ts, [r, dataclasses.replace(r, rid=r.rid + "-twin")]


def wrong_d(ts, batch, prev):
    r = batch[0]
    return ts, [dataclasses.replace(r, attrs=r.attrs + (frozenset({"extra"}),))] + batch[1:]


def wrong_stamp(ts, batch, prev):
    r = batch[0]
    return ts, [dataclasses.replace(r, arrival_time=ts + 1)] + batch[1:]


REJECTED = (stale_timestamp, live_rid_again, two_on_one_stream, wrong_d, wrong_stamp)


class TestRejectedBatchesDifferential:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        window=st.integers(1, 6),
        rejects=st.lists(st.lists(st.sampled_from(REJECTED), max_size=3), min_size=10, max_size=10),
    )
    def test_modes_agree_with_a_clean_run(self, seed, window, rejects):
        repo, trace = make_workload(seed=seed, length=10, repo_size=20, xi=0.4)
        cfg = make_config(window=window)
        clean = Engine(repo, cfg, mode=MODE_ORACLE).run(list(trace))
        engines = {mode: Engine(repo, cfg, mode=mode) for mode in MODES}
        prev = None
        for (ts, batch), makers in zip(by_arrival(trace), rejects):
            for make in makers:
                bad = make(ts, batch, prev)
                if bad is None:
                    continue
                for engine in engines.values():
                    with pytest.raises(TerideError):
                        engine.step(*bad)
            for engine in engines.values():
                engine.step(ts, batch)
            prev = batch
        logs = {mode: engine.results for mode, engine in engines.items()}
        for mode in MODES:
            assert logs[mode].to_jsonl() == clean.to_jsonl(), mode
        assert logs[MODE_ENGINE].to_jsonl() == logs[MODE_NOINDEX].to_jsonl()
