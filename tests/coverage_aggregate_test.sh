#!/usr/bin/env bash
# Self-test for tools/coverage_aggregate.py on a two-document gcov JSON
# fixture: a header that both translation units include counts once
# (the union of its lines), files outside src/core and src/incr are
# dropped, and the last file of each document has no executable lines,
# so it must add nothing to the total.
#
# Usage: coverage_aggregate_test.sh <coverage_aggregate.py> <testdata-dir>
set -u

AGGREGATE="$1"
DATA="$2"

got="$(python3 "$AGGREGATE" --root /repo --prefix src/core/ \
         --prefix src/incr/ < "$DATA/gcov.jsonl")" || {
  echo "FAIL: the aggregator exited non-zero" >&2
  exit 1
}
if ! diff -u "$DATA/expected_summary.txt" <(printf '%s\n' "$got"); then
  echo "FAIL: coverage summary mismatch" >&2
  exit 1
fi
echo "coverage aggregate matches"
