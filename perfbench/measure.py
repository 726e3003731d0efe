"""Measurement processes for one workload; ``run.py`` starts each in a fresh interpreter.

Roles:

* ``oracle`` — replay the workload once in ``oracle`` mode and print its event
  digest and match count: the reference every measured pass is checked against.
* ``run`` — the untraced measurement: construct the engine ``SETUP_SAMPLES``
  times (``setup_s`` samples), then replay the workload in a closed loop with
  one caller, feeding each step as soon as the previous ``Engine.step``
  returns, with a fresh engine per pass until the passes add up to
  ``--seconds`` of online time.  The process runs nothing else, so its peak
  RSS is this workload's ``peak_rss_mb``; it includes the speed probe's
  table, about 20 MB.  One pass of either workload is longer than the 5 s
  the benchmark asks for, so a run measures exactly one pass: a second pass
  in the same process raised peak RSS by about 9%, because the first
  engine's freed memory stays with the process.
* ``trace`` — one untraced pass, then one pass with every layer's entry points
  wrapped by ``tracer.Tracer``, for per-layer self times, counts and overhead.

Times are also given at a reference machine speed.  The speed of a shared
host drifts by up to 2x within minutes, so between steps, about every
``PROBE_EVERY_S`` seconds, the process times a fixed piece of interpreter
work (``speed_probe``) that does not touch teride.  A step's reference time
is its wall time scaled by ``REFERENCE_PROBE_S`` over the median of the
probes nearest to it (a median, so that one probe the host preempted does
not count); a faster or slower program still moves it in proportion, a
faster or slower host does not.  Each construction is scaled the same way by
the probes just before and after it.

Each role prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass
from time import perf_counter

from teride.cli import f_score
from teride.engine import Engine

from tracer import Tracer
from workloads import WORKLOADS, Inputs, Workload, make_inputs

SETUP_SAMPLES = 5  # setup_s is the median of this many constructions
PROBE_EVERY_S = 0.1
PROBE_REACH = 2  # a block of steps is scaled by the probes up to this many blocks away
SETUP_PROBES = 5  # probes before and after each construction
# Typical speed_probe() time between steps on the 2-core host the benchmark
# was written on, so reference times read close to that host's wall times.
# It only sets their scale.
REFERENCE_PROBE_S = 0.0075

_rnd = random.Random(20210316)
_PROBE_TABLE = {k: k for k in (_rnd.getrandbits(40) for _ in range(1 << 18))}
_PROBE_KEYS = _rnd.sample(list(_PROBE_TABLE), 4000)
_PROBE_SETS = [frozenset(_rnd.sample(range(120), _rnd.randint(2, 9))) for _ in range(64)]


def speed_probe() -> float:
    """Seconds taken by a fixed mix of the work the engine does: scattered
    lookups in a dict too large for the CPU caches (as in the distance memo)
    and token-set Jaccard sums."""
    t0 = perf_counter()
    acc = 0.0
    for _ in range(2):
        for k in _PROBE_KEYS:
            acc += _PROBE_TABLE[k] & 1
        sets = _PROBE_SETS
        for i in range(2000):
            a, b = sets[i & 63], sets[(i * 7) & 63]
            inter = len(a & b)
            acc += inter / (len(a) + len(b) - inter)
    return perf_counter() - t0


@dataclass
class Pass:
    """One replay of the whole workload through one engine."""

    step_s: list  # wall time of each Engine.step call
    step_ref_s: list  # the same at the reference speed
    digest: str  # sha256 of the engine's event stream in its JSONL form
    matches: int
    arrivals: int
    failed: int  # arrivals whose step raised

    @property
    def online_s(self) -> float:
        return sum(self.step_s)

    def record(self) -> dict:
        steps = self.step_ref_s
        p99 = statistics.quantiles(steps, n=100)[98] if len(steps) > 1 else steps[0]
        return {
            "digest": self.digest,
            "matches": self.matches,
            "arrivals": self.arrivals,
            "failed": self.failed,
            "steps": len(steps),
            "online_s": self.online_s,
            "online_ref_s": sum(steps),
            "p50_ref_s": statistics.median(steps),
            "p99_ref_s": p99,
            "beyond_p99": sum(s > p99 for s in steps),
        }


def replay(engine: Engine, inputs: Inputs) -> Pass:
    step_s = []
    block_ends = []  # index of the first step after each speed probe
    probes = [speed_probe()]
    failed = 0
    since_probe = 0.0
    for ts, batch in inputs.steps:
        t0 = perf_counter()
        try:
            engine.step(ts, batch)
        except Exception:  # an arrival fails when its step raises; keep replaying
            if not failed:
                traceback.print_exc(file=sys.stderr)
            failed += len(batch)
        dt = perf_counter() - t0
        step_s.append(dt)
        since_probe += dt
        if since_probe >= PROBE_EVERY_S:
            block_ends.append(len(step_s))
            probes.append(speed_probe())
            since_probe = 0.0
    if not block_ends or block_ends[-1] != len(step_s):
        block_ends.append(len(step_s))
        probes.append(speed_probe())
    digest, matches = event_digest(engine)
    return Pass(
        step_s=step_s,
        step_ref_s=to_reference(step_s, block_ends, probes),
        digest=digest,
        matches=matches,
        arrivals=inputs.arrivals,
        failed=failed,
    )


def event_digest(engine: Engine) -> tuple:
    """(sha256 of the engine's event stream in its JSONL form, number of matches)."""
    results = engine.results
    return hashlib.sha256(results.to_jsonl().encode()).hexdigest(), len(results.matches())


def to_reference(step_s: list, block_ends: list, probes: list) -> list:
    """Step times at the reference speed.  Block i holds the steps before index
    ``block_ends[i]`` and after the previous block; ``probes[i]`` and
    ``probes[i + 1]`` are the speed probes timed on either side of it, and it
    is scaled by the median of the probes within ``PROBE_REACH`` of those."""
    out = []
    start = 0
    for i, end in enumerate(block_ends):
        near = probes[max(0, i - PROBE_REACH) : i + 2 + PROBE_REACH]
        scale = REFERENCE_PROBE_S / statistics.median(near)
        out.extend(s * scale for s in step_s[start:end])
        start = end
    return out


def timed_setup(inputs: Inputs, samples: list) -> Engine:
    """Construct an engine; append (wall s, reference s) of the construction to ``samples``."""
    probes = [speed_probe() for _ in range(SETUP_PROBES)]
    t0 = perf_counter()
    engine = Engine(inputs.repo, inputs.config)
    wall = perf_counter() - t0
    probes += [speed_probe() for _ in range(SETUP_PROBES)]
    samples.append((wall, wall * REFERENCE_PROBE_S / statistics.median(probes)))
    return engine


def role_oracle(workload: Workload, seed: int, seconds: float) -> dict:
    inputs = make_inputs(workload, seed)
    engine = Engine(inputs.repo, inputs.config, mode="oracle")
    for ts, batch in inputs.steps:  # untimed; a step that raises fails the whole run
        engine.step(ts, batch)
    digest, matches = event_digest(engine)
    return {"digest": digest, "matches": matches}


def role_run(workload: Workload, seed: int, seconds: float) -> dict:
    inputs = make_inputs(workload, seed)
    setups: list = []
    for _ in range(SETUP_SAMPLES - 1):
        timed_setup(inputs, setups)
    passes = []
    f1 = None
    while not passes or sum(p.online_s for p in passes) < seconds:
        engine = timed_setup(inputs, setups)
        passes.append(replay(engine, inputs))
        if f1 is None:
            f1 = f_score(engine.results.match_keys(), inputs.truth)
        del engine
    return {
        "setup_s": statistics.median(ref for _, ref in setups),
        "setup_wall_s": statistics.median(wall for wall, _ in setups),
        "setup_samples": len(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "match_f1": f1,
        "truth_pairs": len(inputs.truth),
        "passes": [p.record() for p in passes],
    }


def role_trace(workload: Workload, seed: int, seconds: float) -> dict:
    inputs = make_inputs(workload, seed)
    plain = replay(Engine(inputs.repo, inputs.config), inputs)
    inputs = make_inputs(workload, seed)
    with Tracer() as tracer:
        engine = Engine(inputs.repo, inputs.config)
        traced = replay(engine, inputs)
    layers = tracer.report(repo_size=len(inputs.repo))
    metrics_fn = getattr(engine, "metrics", None)
    engine_metrics = metrics_fn() if metrics_fn is not None else {}
    return {
        "layers": layers,
        "stage_counts": engine_metrics.get("stage_counts", {}),
        "pairs_considered": engine_metrics.get("pairs_considered"),
        "pruning_power": engine_metrics.get("pruning_power"),
        "memo_entries": _len_or_none(getattr(engine, "dist", None), "_cache"),
        "live_tuples": _len_or_none(engine, "summaries"),
        "trace_overhead": sum(traced.step_ref_s) / sum(plain.step_ref_s) - 1.0,
        "spans": len(tracer.start),
        "missing": tracer.missing + [f"return value of {s}" for s in sorted(tracer.unreadable)],
        "passes": [plain.record(), traced.record()],
    }


def _len_or_none(owner, attr: str):
    value = getattr(owner, attr, None)
    return None if value is None else len(value)


ROLES = {"oracle": role_oracle, "run": role_run, "trace": role_trace}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--role", choices=sorted(ROLES), required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    args = parser.parse_args(argv)
    result = ROLES[args.role](WORKLOADS[args.workload], args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
