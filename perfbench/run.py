"""Layered, oracle-checked benchmark of the teride streaming engine.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload impute_heavy --seed 1 --seconds 5 --trace 0

Drives ``teride.engine.Engine`` through its Python API on one seeded synthetic
workload (see ``workloads.py``).  With ``--trace 0`` it prints the end-to-end
metrics of untraced passes in a fresh process (``measure.py --role run``),
repeated until they add up to ``--seconds`` of online time.  Times are given
at a reference machine speed (see ``measure.py``); the wall times they come
from are printed next to them.  With ``--trace 1`` it prints the per-layer
metrics of a separate traced run.  Every measured pass is checked against the
``oracle`` mode's event stream: the stored digest for a workload's default
seed, or a fresh ``oracle`` run in its own process for any other seed, done
before the measurement and cached under ``.perfbench_cache/`` by workload,
seed and a hash of the teride sources.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--write-reference`` recomputes the stored default-seed references.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
CACHE = ROOT / ".perfbench_cache"
RUN_BUDGET_S = 170  # every child process ends within this much of the start
DEADLINE = time.perf_counter() + RUN_BUDGET_S

# name -> unit
END_TO_END = {
    "setup_s": "s",
    "arrivals_per_s": "1/s",
    "step_p50_ms": "ms",
    "step_p99_ms": "ms",
    "peak_rss_mb": "MB",
    "match_f1": "ratio",
}

STAGES = ("keyword", "sim_ub_size", "sim_ub_pivot", "prob_ub", "instance_level")


def per_layer_units() -> dict:
    """Unit of every per-layer metric the traced run reports."""
    from tracer import LAYER_COUNTS, LAYER_RATIOS, LAYER_TIMES

    units = {name: "s" for name in LAYER_TIMES}
    units.update({name: "count" for name in LAYER_COUNTS})
    units.update({name: "ratio" for name in LAYER_RATIOS})
    units.update({f"prune.pruned.{stage}": "count" for stage in STAGES})
    units.update(
        {
            "index.dr_selectivity": "ratio",
            "prune.refined": "count",
            "prune.pairs_considered": "count",
            "prune.pruning_power": "ratio",
            "metric.memo_entries": "count",
            "engine.live_tuples": "count",
            "trace.step_total_s": "s",
            "trace.overhead": "ratio",
        }
    )
    return units


def run_child(role: str, workload: str, seed: int, seconds: int = 0) -> dict:
    """Run measure.py in a fresh interpreter; its JSON result, with ``wall_s`` added."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    env["PYTHONHASHSEED"] = "0"  # fixed set iteration order: same inputs, same work
    cmd = [
        sys.executable, str(HERE / "measure.py"), "--role", role,
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
    ]
    t0 = time.perf_counter()
    timeout = max(1.0, DEADLINE - t0)
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{role} process for {workload} exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - t0
    return result


def source_hash() -> str:
    """Hash of the teride sources, so a cached oracle digest is never reused by other code."""
    h = hashlib.sha256()
    for path in sorted((SRC / "teride").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def load_references() -> dict:
    if not REFERENCE.exists():
        return {}
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def reference_for(workload, seed: int) -> tuple:
    """(oracle digest, match count, where it came from) for this workload and seed."""
    stored = load_references().get(workload.name, {})
    if stored.get("key") == workload.key() and stored.get("default_seed") == seed:
        return stored["oracle_sha256"], stored["oracle_matches"], "stored"
    path = CACHE / f"oracle-{workload.name}-{workload.key()}-{seed}-{source_hash()}.json"
    if path.exists():
        with open(path, encoding="utf-8") as fh:
            ref = json.load(fh)
        return ref["digest"], ref["matches"], "cached oracle run"
    ref = run_child("oracle", workload.name, seed)
    source = f"fresh oracle run ({ref.pop('wall_s'):.1f} s)"
    CACHE.mkdir(exist_ok=True)
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(ref, fh)
    os.replace(tmp, path)
    return ref["digest"], ref["matches"], source


def check_passes(passes: list, digest: str, matches: int) -> tuple:
    """(attempted, failed) arrivals; a pass whose events differ from the oracle fails whole."""
    attempted = failed = 0
    for p in passes:
        attempted += p["arrivals"]
        if p["digest"] != digest or p["matches"] != matches:
            failed += p["arrivals"]
        else:
            failed += p["failed"]
    return attempted, failed


def end_to_end(result: dict) -> dict:
    """Step percentiles are taken per pass (distinct steps), then the median over passes."""
    passes = result["passes"]
    processed = sum(p["arrivals"] - p["failed"] for p in passes)
    values = {
        "setup_s": result["setup_s"],
        "arrivals_per_s": processed / sum(p["online_ref_s"] for p in passes),
        "step_p50_ms": statistics.median(p["p50_ref_s"] for p in passes) * 1e3,
        "step_p99_ms": statistics.median(p["p99_ref_s"] for p in passes) * 1e3,
        "peak_rss_mb": result["peak_rss_mb"],
        "match_f1": result["match_f1"],
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def per_layer(result: dict) -> dict:
    values = dict(result["layers"])
    stage_counts = result["stage_counts"] or {}
    for stage in STAGES:
        values[f"prune.pruned.{stage}"] = stage_counts.get(stage)
    values["prune.refined"] = stage_counts.get("refined")
    values["prune.pairs_considered"] = result["pairs_considered"]
    values["prune.pruning_power"] = result["pruning_power"]
    values["metric.memo_entries"] = result["memo_entries"]
    values["engine.live_tuples"] = result["live_tuples"]
    values["trace.overhead"] = result["trace_overhead"]
    units = per_layer_units()
    return {name: {"value": values.get(name), "unit": unit} for name, unit in units.items()}


def write_references() -> int:
    from workloads import WORKLOADS

    refs = load_references()
    for name, w in WORKLOADS.items():
        entry = refs[name]
        seed = entry["default_seed"]
        ref = run_child("oracle", name, seed)
        refs[name] = {
            "key": w.key(),
            "default_seed": seed,
            "heldout_seed": entry["heldout_seed"],
            "oracle_sha256": ref["digest"],
            "oracle_matches": ref["matches"],
        }
        print(f"{name}: seed {seed} digest {ref['digest'][:16]} matches {ref['matches']}")
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int, default=5)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "teride" / "__init__.py").is_file():
        print(f"perfbench: no teride sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.write_reference:
        return write_references()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS or args.seed is None or args.seconds < 1:
        parser.error(f"need --workload ({', '.join(WORKLOADS)}), --seed and --seconds >= 1")
    workload = WORKLOADS[args.workload]
    # The oracle reference comes first, outside the measuring process.
    digest, matches, source = reference_for(workload, args.seed)
    role = "trace" if args.trace else "run"
    result = run_child(role, workload.name, args.seed, args.seconds)
    passes = result["passes"]
    metrics = per_layer(result) if args.trace else end_to_end(result)
    attempted, failed = check_passes(passes, digest, matches)

    print(f"workload {workload.name}  seed {args.seed}  oracle reference: {source}")
    print(f"  measuring process took {result['wall_s']:.1f} s")
    for p in passes:
        verdict = "ok" if p["digest"] == digest and p["matches"] == matches else "DIFFERS"
        print(
            f"  pass: {p['arrivals']} arrivals, {p['matches']} matches, events {verdict}; "
            f"{p['steps']} steps, {p['beyond_p99']} beyond p99; online {p['online_s']:.3f} s "
            f"wall, {p['online_ref_s']:.3f} s at reference speed"
        )
    if args.trace:
        print(f"  spans recorded: {result['spans']}")
        if result["missing"]:
            print("  not traced (their metrics read null): " + ", ".join(result["missing"]))
    else:
        print(
            f"  setup_s is the median of {result['setup_samples']} constructions "
            f"({result['setup_wall_s']:.4f} s wall); step percentiles are per pass, "
            f"median over {len(passes)} passes; match_f1 against {result['truth_pairs']} true pairs"
        )
    for name, m in metrics.items():
        value = "null" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:28s} {value:>14s} {m['unit']}")
    print(f"  {'failed_share':28s} {failed / attempted:>14.6g} ratio ({failed} of {attempted} arrivals)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
