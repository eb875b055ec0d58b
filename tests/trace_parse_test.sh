#!/usr/bin/env bash
# Trace test for `dmc_cli --trace-out`: an in-memory mine-imp and mine-sim
# on the checked-in fixture matrix must record the input parse as a
# matrix/parse span, ahead of the miner's first phase, and every mine
# (in memory and --external) must record the rule output as a rules/emit
# span after the miner's last span.
#
# Usage: trace_parse_test.sh <path-to-dmc_cli> <testdata-metrics-dir>
set -u

CLI="$1"
FIXTURE="$2/fixture_matrix.txt"

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

fail=0

# First line of the trace file naming span $2, or 0 when it is absent.
span_line() {
  grep -n "\"name\": \"$2\"" "$1" | head -n 1 | cut -d: -f1 | grep . ||
    echo 0
}

# Last line of the trace file naming a span that starts with $2, or 0.
last_span_line() {
  grep -n "\"name\": \"$2" "$1" | tail -n 1 | cut -d: -f1 | grep . ||
    echo 0
}

# check <label> <command> <kind> <parse span or ""> <args...>
check() {
  local label="$1" command="$2" kind="$3" parse_span="$4"
  shift 4
  local trace="$TMP/$label.json"
  if ! "$CLI" "$command" --input="$FIXTURE" "$@" --trace-out="$trace" \
      >/dev/null 2>&1; then
    echo "FAIL: $label: dmc_cli $command exited non-zero" >&2
    fail=1
    return
  fi
  if [ -n "$parse_span" ]; then
    local parse first
    parse="$(span_line "$trace" "$parse_span")"
    first="$(span_line "$trace" "$kind/prescan")"
    if [ "$parse" -eq 0 ] || [ "$first" -eq 0 ] || [ "$parse" -ge "$first" ]
    then
      echo "FAIL: $label trace lacks $parse_span ahead of $kind/prescan" \
           "(lines $parse, $first)" >&2
      fail=1
    fi
  fi
  local last emit
  last="$(last_span_line "$trace" "$kind/")"
  emit="$(span_line "$trace" rules/emit)"
  if [ "$last" -eq 0 ] || [ "$emit" -le "$last" ]; then
    echo "FAIL: $label trace lacks rules/emit after the last $kind span" \
         "(lines $emit, $last)" >&2
    fail=1
  fi
}

check mine-imp mine-imp imp matrix/parse --minconf=0.8
check mine-sim mine-sim sim matrix/parse --minsim=0.6
check mine-imp-cut mine-imp imp matrix/parse --minconf=0.9
check mine-imp-external mine-imp imp "" --minconf=0.8 --external \
  --workdir="$TMP"
check mine-sim-external mine-sim sim "" --minsim=0.6 --external \
  --workdir="$TMP"

if [ "$fail" -ne 0 ]; then
  exit 1
fi
echo "matrix/parse precedes the first mining phase; rules/emit follows the last"
