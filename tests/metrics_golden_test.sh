#!/usr/bin/env bash
# Golden test for `dmc_cli --metrics-out`: mines the checked-in fixture
# matrix, masks the non-deterministic fields (wall-clock timings and the
# invocation-dependent input path), and diffs the result against the
# goldens in tests/testdata/metrics/.
#
# Usage: metrics_golden_test.sh <path-to-dmc_cli> <testdata-metrics-dir>
#
# To regenerate the goldens after an intentional schema change, run the
# script with UPDATE_GOLDENS=1.
set -u

CLI="$1"
DATA="$2"
FIXTURE="$DATA/fixture_matrix.txt"

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

# Every timing field ends in "seconds" (the stats_export.h contract);
# mask their numeric values, plus the free-form dataset path and the
# machine-dependent resolved merge kernel ("simd" vs "scalar").
mask() {
  sed -e 's/\("[A-Za-z0-9_.]*seconds"\): [0-9.e+-]*/\1: 0/' \
      -e 's|"dataset": ".*"|"dataset": "<input>"|' \
      -e 's/"kernel": "[a-z]*"/"kernel": "<kernel>"/' "$1"
}

fail=0

run_case() {
  local name="$1"
  shift
  if ! "$CLI" "$@" --metrics-out="$TMP/$name.json" >/dev/null 2>&1; then
    echo "FAIL: dmc_cli exited non-zero for case $name" >&2
    fail=1
    return
  fi
  mask "$TMP/$name.json" > "$TMP/$name.masked.json"
  if [ "${UPDATE_GOLDENS:-0}" = "1" ]; then
    cp "$TMP/$name.masked.json" "$DATA/$name.golden.json"
    echo "updated $DATA/$name.golden.json"
    return
  fi
  if ! diff -u "$DATA/$name.golden.json" "$TMP/$name.masked.json"; then
    echo "FAIL: metrics mismatch for case $name" >&2
    fail=1
  fi
}

run_case mine_imp \
  mine-imp --input="$FIXTURE" --minconf=0.8 --order=sort
run_case mine_imp_parallel \
  mine-imp --input="$FIXTURE" --minconf=0.8 --order=sort --threads=2
run_case mine_sim \
  mine-sim --input="$FIXTURE" --minsim=0.6 --order=sort
# The external scan reports its own "mining" block next to "external";
# its peak_counter_bytes equals the in-memory mine's in the default
# density-bucket order.
run_case mine_imp_external \
  mine-imp --input="$FIXTURE" --minconf=0.8 --external --workdir="$TMP"
run_case mine_sim_external \
  mine-sim --input="$FIXTURE" --minsim=0.6 --external --workdir="$TMP"

if [ "$fail" -ne 0 ]; then
  exit 1
fi
echo "metrics goldens match"
