#!/usr/bin/env bash
# Runs under the absdiff distance, which the CLI has no flag for, through the
# Python API, and checks what they must show.
#
#   usage: absdiff.sh modes DIR RHO HOLES SHAPE STAGE
#          absdiff.sh offline DIR
#
# Both read gen's seed-7 data at d=3.  SHAPE "numeric" keeps attribute 0's
# tokens (and the topic keyword) and makes every other attribute one number;
# "tokens" leaves the values as gen writes them.
#
# modes: two streams of 60 tuples, HOLES holes in 40% of them, run in all
# three modes at RHO; each mode writes DIR/<mode>.jsonl and DIR/<mode>.json.
# The engine must write at least one match, all three modes the same events,
# and engine and noindex must count each pruning stage alike with STAGE above 0.
#
# offline: rule mining and pivot selection over 1,500 numeric rows, each in
# its own process bounded to 60 s and to raising the process's peak RSS by
# under 16 MB; each writes DIR/<stage>.txt, and the rule file must not be empty.
set -euo pipefail
py='
import json, resource, sys
from teride.cdd import detect_cdds, rules_to_text
from teride.cli import gen_synthetic, inject_missing
from teride.engine import Engine
from teride.metric import DistanceFn
from teride.model import QueryConfig, Repository, StreamTuple
from teride.pivot import pivots_to_text, select_pivots

def numeric(r):
    attrs = [v if j == 0 else frozenset({f"{sum(int(t[1:]) for t in v) % 50 / 50:.2f}"}) for j, v in enumerate(r.attrs)]
    return StreamTuple(r.rid, r.stream_id, r.arrival_time, tuple(attrs))

dist = DistanceFn("absdiff")
if sys.argv[1] == "run":
    mode, rho, holes, shape, metrics = sys.argv[2:]
    keep = numeric if shape == "numeric" else (lambda r: r)
    repo, streams = gen_synthetic(d=3, n_streams=2, length=60, vocab_size=40, topic_count=3, seed=7)
    trace = inject_missing([keep(t) for rows in streams for t in rows], 0.4, int(holes), seed=8)
    cfg = QueryConfig(keywords=frozenset({"topic0"}), d=3, rho=float(rho), alpha=0.2, window_size=30)
    engine = Engine(Repository([keep(r) for r in repo]), cfg, dist, mode)
    sys.stdout.write(engine.run(trace).to_jsonl())
    json.dump(engine.metrics(), open(metrics, "w"))
else:
    stage = sys.argv[2]
    rows, _ = gen_synthetic(d=3, n_streams=2, length=1500, vocab_size=40, topic_count=3, seed=7, repo_size=1500)
    repo = Repository([numeric(r) for r in rows])
    base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if stage == "detect":
        sys.stdout.write(rules_to_text(detect_cdds(repo, dist)))
    else:
        sys.stdout.write(pivots_to_text(select_pivots(repo, dist=dist)))
    grew = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - base) / 1024
    print(f"{stage}: peak RSS grew {grew:.1f} MB", file=sys.stderr)
    assert grew < 16, f"{stage} raised peak RSS by {grew:.1f} MB"
'
dir=$2
mkdir -p "$dir"
if [ "$1" = modes ]; then
  rho=$3 holes=$4 shape=$5 stage=$6
  for mode in engine noindex oracle; do
    python3 -c "$py" run "$mode" "$rho" "$holes" "$shape" "$dir/$mode.json" > "$dir/$mode.jsonl"
  done
  grep -q '"kind": "match"' "$dir/engine.jsonl"
  cmp "$dir/engine.jsonl" "$dir/oracle.jsonl"
  cmp "$dir/engine.jsonl" "$dir/noindex.jsonl"
  python3 -c 'import json, sys; c = [json.load(open(f"{sys.argv[1]}/{m}.json"))["stage_counts"] for m in ("engine", "noindex")]; print(c); sys.exit(c[0] != c[1] or c[0][sys.argv[2]] == 0)' "$dir" "$stage"
else
  for stage in detect pivots; do
    timeout 60 python3 -c "$py" offline "$stage" > "$dir/$stage.txt"
  done
  test -s "$dir/detect.txt"
fi
