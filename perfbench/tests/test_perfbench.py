"""The benchmark's own checks, on workloads cut down to a few dozen steps.

Run from the repository root with ``python -m pytest -q perfbench/tests``.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

import run
from measure import REFERENCE_PROBE_S, replay, to_reference
from teride.cli import f_score, gen_synthetic
from teride.engine import Engine, Event, MatchResultSet
from tracer import ENTRY_POINTS, LAYER_TIMES, Tracer
from workloads import KEYWORDS, WORKLOADS, Workload, ground_truth, make_inputs

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
SETUP_LAYERS = ("cdd.detect_s", "pivot.select_s", "index.build_s")


def tiny(name: str, length: int = 48) -> Workload:
    w = WORKLOADS[name]
    window = None if w.window is None else max(2, min(w.window, length // 2))
    return dataclasses.replace(w, length=length, repo_size=40, window=window)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_engine_events_equal_live_oracle(name):
    w = tiny(name)
    inputs = make_inputs(w, 5)
    oracle = replay(Engine(inputs.repo, inputs.config, mode="oracle"), inputs)
    engine = replay(Engine(inputs.repo, inputs.config), inputs)
    assert oracle.failed == engine.failed == 0
    assert engine.digest == oracle.digest
    assert engine.matches == oracle.matches
    assert engine.arrivals == w.streams * w.length


def test_reference_times_scale_each_block_by_the_median_of_nearby_probes():
    probe = REFERENCE_PROBE_S
    probes = [probe, probe, 2 * probe, 2 * probe, 2 * probe, 2 * probe, 2 * probe, 9 * probe]
    ref = to_reference([1.0] * 7, [1, 2, 3, 4, 5, 6, 7], probes)
    # block 0 sees probes 0-3, block 3 probes 1-6, block 6 probes 4-7
    assert ref == pytest.approx([1 / 1.5, 1 / 2, 1 / 2, 1 / 2, 1 / 2, 1 / 2, 1 / 2])
    assert to_reference([2.0], [1], [probe, 3 * probe]) == pytest.approx([1.0])


def test_a_pass_records_every_step():
    inputs = make_inputs(tiny("tight_rho"), 5)
    p = replay(Engine(inputs.repo, inputs.config), inputs)
    assert len(p.step_ref_s) == len(p.step_s) == len(inputs.steps)
    record = p.record()
    assert record["steps"] == len(inputs.steps)
    assert record["p50_ref_s"] <= record["p99_ref_s"]
    assert record["online_ref_s"] == pytest.approx(sum(p.step_ref_s))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_layer_self_times_sum_to_step_total(name):
    w = tiny(name)
    inputs = make_inputs(w, 3)
    with Tracer() as tracer:
        engine = Engine(inputs.repo, inputs.config)
        p = replay(engine, inputs)
    layers = tracer.report(repo_size=len(inputs.repo))
    assert tracer.missing == []
    assert all(v is not None and v >= 0 for v in layers.values())
    online = sum(layers[m] for m in LAYER_TIMES if m not in SETUP_LAYERS)
    assert online == pytest.approx(layers["trace.step_total_s"], rel=1e-9, abs=1e-9)
    assert layers["trace.step_total_s"] <= sum(p.step_s)
    assert tracer.steps == len(inputs.steps)
    assert layers["cdd.detect_s"] > 0 and layers["pivot.select_s"] > 0
    assert not hasattr(Engine.step, "__wrapped__")  # uninstalled on exit


def test_counts_come_from_return_values():
    w = tiny("impute_heavy")
    inputs = make_inputs(w, 3)
    with Tracer() as tracer:
        engine = Engine(inputs.repo, inputs.config)
        replay(engine, inputs)
    layers = tracer.report(repo_size=len(inputs.repo))
    incomplete = sum(1 for _, batch in inputs.steps for r in batch if not r.is_complete())
    assert layers["impute.tuples"] == incomplete
    assert layers["grid.evictions"] == w.streams * (w.length - w.window_size)
    assert 0.0 <= layers["grid.candidate_ratio"] <= 1.0
    assert layers["index.dr_selectivity"] == pytest.approx(
        layers["index.dr_samples_per_rule"] / len(inputs.repo)
    )


def test_missing_entry_point_reads_null_and_run_survives():
    renamed = tuple(
        (target, "range_samples_v2" if attr == "range_samples" else attr, span, hook)
        for target, attr, span, hook in ENTRY_POINTS
    ) + (("teride.no_such_module", "f", "ghost", None),)
    w = tiny("impute_heavy")
    inputs = make_inputs(w, 3)
    with Tracer(renamed) as tracer:
        p = replay(Engine(inputs.repo, inputs.config), inputs)
    layers = tracer.report(repo_size=len(inputs.repo))
    assert tracer.missing == [
        "teride.index:DrIndex.range_samples_v2",
        "teride.no_such_module.f",
    ]
    assert p.failed == 0
    for metric in ("index.dr_range_s", "index.dr_samples_per_rule", "index.dr_selectivity"):
        assert layers[metric] is None
    assert layers["impute.self_s"] is not None


def test_unreadable_return_value_nulls_only_its_counts():
    def broken_hook(counts, args, result):
        raise AttributeError("ImputedTuple has no instance_count")

    patched = tuple(
        (target, attr, span, broken_hook if span == "impute_tuple" else hook)
        for target, attr, span, hook in ENTRY_POINTS
    )
    w = tiny("impute_heavy")
    inputs = make_inputs(w, 3)
    with Tracer(patched) as tracer:
        p = replay(Engine(inputs.repo, inputs.config), inputs)
    layers = tracer.report(repo_size=len(inputs.repo))
    assert p.failed == 0 and tracer.unreadable == {"impute_tuple"}
    assert layers["impute.tuples"] is None and layers["index.rules_per_tuple"] is None
    assert layers["impute.self_s"] is not None and layers["grid.evictions"] is not None


def test_ground_truth_and_f1_on_a_hand_sized_case():
    _, streams = gen_synthetic(d=4, n_streams=2, length=20, vocab_size=30, topic_count=16, seed=4)
    complete = [t for rows in streams for t in rows]
    # entities 0 and 16 carry topic0; each has one copy per stream, stamped t+1
    truth = {(1, "s0t0", "s1t0"), (17, "s0t16", "s1t16")}
    assert ground_truth(complete, KEYWORDS) == truth

    def f1(events):
        results = MatchResultSet()
        results.extend(events)
        return f_score(results.match_keys(), truth)

    def match(ts, a, b):
        return Event(ts=ts, kind="match", rid_a=a, rid_b=b, prob=0.9)

    assert f1([match(1, "s0t0", "s1t0"), match(17, "s0t16", "s1t16")]) == 1.0
    found = [match(1, "s0t0", "s1t0"), match(3, "s0t2", "s1t2")]  # one right, one wrong
    assert f1(found) == pytest.approx(0.5)
    assert f1([Event(ts=1, kind="expire", rid_a="s0t0")]) == 0.0


def test_three_streams_give_every_stream_pair():
    _, streams = gen_synthetic(d=4, n_streams=3, length=1, vocab_size=30, topic_count=16, seed=4)
    truth = ground_truth([t for rows in streams for t in rows], KEYWORDS)
    assert truth == {(1, "s0t0", "s1t0"), (1, "s0t0", "s2t0"), (1, "s1t0", "s2t0")}


def test_a_pass_that_differs_from_the_oracle_fails_whole():
    good = {"digest": "a", "matches": 2, "arrivals": 10, "failed": 0}
    raised = {"digest": "a", "matches": 2, "arrivals": 10, "failed": 3}
    wrong = {"digest": "b", "matches": 2, "arrivals": 10, "failed": 0}
    assert run.check_passes([good, raised, wrong], "a", 2) == (30, 13)


def test_end_to_end_takes_step_percentiles_per_pass_and_their_median():
    def fake(online, p50, p99):
        return {"arrivals": 100, "failed": 10, "online_ref_s": online, "p50_ref_s": p50, "p99_ref_s": p99}

    result = {
        "setup_s": 2.0,
        "peak_rss_mb": 80.0,
        "match_f1": 0.5,
        "passes": [fake(1.0, 0.001, 0.02), fake(2.0, 0.003, 0.01), fake(3.0, 0.002, 0.5)],
    }
    m = {name: v["value"] for name, v in run.end_to_end(result).items()}
    assert m["setup_s"] == 2.0 and m["peak_rss_mb"] == 80.0 and m["match_f1"] == 0.5
    assert m["arrivals_per_s"] == pytest.approx(270 / 6.0)
    assert m["step_p50_ms"] == pytest.approx(2.0)
    assert m["step_p99_ms"] == pytest.approx(20.0)


def test_cached_oracle_digests_are_keyed_by_the_sources(tmp_path, monkeypatch):
    src = tmp_path / "src"
    (src / "teride").mkdir(parents=True)
    module = src / "teride" / "engine.py"
    module.write_text("A = 1\n")
    monkeypatch.setattr(run, "SRC", src)
    before = run.source_hash()
    module.write_text("A = 2\n")
    assert run.source_hash() != before


def test_stored_references_match_the_workloads():
    refs = run.load_references()
    assert set(refs) == set(WORKLOADS)
    for name, ref in refs.items():
        assert ref["key"] == WORKLOADS[name].key(), f"rerun run.py --write-reference for {name}"
        assert ref["default_seed"] != ref["heldout_seed"]
        assert len(ref["oracle_sha256"]) == 64 and ref["oracle_matches"] > 0


def test_benchmark_json_lists_what_the_benchmark_prints():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
