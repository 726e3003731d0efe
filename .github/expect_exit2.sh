#!/usr/bin/env bash
# Run one command that must refuse its input: it exits with code exactly 2,
# and its standard error names the fault and holds no Python traceback.
#
#   usage: expect_exit2.sh MESSAGE -- COMMAND...
#
# MESSAGE is a grep pattern the standard error must match.  The standard
# error is printed either way, so the log shows what the command said.
set -euo pipefail
if [ $# -lt 3 ] || [ "$2" != "--" ]; then
  echo "usage: expect_exit2.sh MESSAGE -- COMMAND..." >&2
  exit 64
fi
message=$1
shift 2
err=$(mktemp)
trap 'rm -f "$err"' EXIT
rc=0
"$@" 2> "$err" || rc=$?
cat "$err"
test "$rc" -eq 2
grep -q -- "$message" "$err"
if grep -q Traceback "$err"; then exit 1; fi
