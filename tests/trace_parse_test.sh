#!/usr/bin/env bash
# Trace test for `dmc_cli --trace-out`: an in-memory mine-imp and mine-sim
# on the checked-in fixture matrix must record the input parse as a
# matrix/parse span, ahead of the miner's first phase.
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

check() {
  local command="$1" first_phase="$2"
  shift 2
  local trace="$TMP/$command.json"
  if ! "$CLI" "$command" --input="$FIXTURE" "$@" --trace-out="$trace" \
      >/dev/null 2>&1; then
    echo "FAIL: dmc_cli $command exited non-zero" >&2
    fail=1
    return
  fi
  local parse phase
  parse="$(span_line "$trace" matrix/parse)"
  phase="$(span_line "$trace" "$first_phase")"
  if [ "$parse" -eq 0 ] || [ "$phase" -eq 0 ] || [ "$parse" -ge "$phase" ]; then
    echo "FAIL: $command trace lacks matrix/parse ahead of $first_phase" \
         "(lines $parse, $phase)" >&2
    fail=1
  fi
}

check mine-imp imp/prescan --minconf=0.8
check mine-sim sim/prescan --minsim=0.6

if [ "$fail" -ne 0 ]; then
  exit 1
fi
echo "matrix/parse precedes the first mining phase"
