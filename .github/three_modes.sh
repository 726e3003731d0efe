#!/usr/bin/env bash
# Run one `teride run` in all three modes and check what they must agree on:
# the engine writes at least one match, all three modes write the same
# events, and engine and noindex, which differ only in fetching, count each
# pruning stage alike.
#
#   usage: three_modes.sh DIR TIMEOUT RUN-FLAGS...
#
# Each mode writes DIR/<mode>.jsonl and DIR/<mode>.json.  TIMEOUT bounds each
# run in seconds; 0 sets no bound.  RUN-FLAGS are the flags every mode shares.
set -euo pipefail
dir=$1 limit=$2
shift 2
mkdir -p "$dir"
for mode in engine noindex oracle; do
  timeout "$limit" teride run "$@" --mode "$mode" \
    --results "$dir/$mode.jsonl" --metrics "$dir/$mode.json"
done
grep -q '"kind": "match"' "$dir/engine.jsonl"
cmp "$dir/engine.jsonl" "$dir/oracle.jsonl"
cmp "$dir/engine.jsonl" "$dir/noindex.jsonl"
python3 -c 'import json, sys; c = [json.load(open(f"{sys.argv[1]}/{m}.json"))["stage_counts"] for m in ("engine", "noindex")]; print(c); sys.exit(c[0] != c[1])' "$dir"
