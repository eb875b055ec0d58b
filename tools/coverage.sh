#!/usr/bin/env bash
# coverage.sh — line-coverage gate for the mining core.
#
# Builds the `coverage` preset (--coverage instrumentation, -O0), runs
# the full test suite, aggregates gcov line coverage for src/core/ and
# src/incr/ (tools/coverage_aggregate.py), writes a per-file summary to
# build-coverage/coverage_summary.txt, and fails if the aggregate line
# coverage drops below the floor recorded in tools/coverage_floor.txt.
#
# Uses the stock `gcov --json-format` output and python3 only — no
# lcov/gcovr dependency.
#
# Usage:
#   tools/coverage.sh              # build + test + gate
#   tools/coverage.sh --no-build   # reuse an existing instrumented build
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "${repo_root}"
build_dir="${repo_root}/build-coverage"
jobs="$(nproc 2>/dev/null || echo 4)"
floor_file="${repo_root}/tools/coverage_floor.txt"

if [[ "${1:-}" != "--no-build" ]]; then
  cmake --preset coverage >/dev/null
  cmake --build --preset coverage -j "${jobs}"
  # Stale counters from earlier runs would double-count.
  find "${build_dir}" -name '*.gcda' -delete
  ctest --preset coverage -j "${jobs}"
fi

# Every .gcda under the instrumented core/incr object dirs feeds one gcov
# invocation; `gcov --json-format --stdout` prints one JSON document per
# .gcda without dropping .gcov files anywhere. The aggregator counts each
# src/core or src/incr file once: the union of its executable and of its
# covered lines across every translation unit that includes it.
summary="${build_dir}/coverage_summary.txt"
gcda_list="$(find "${build_dir}/src/core" "${build_dir}/src/incr" \
             -name '*.gcda' 2>/dev/null | sort)"
if [[ -z "${gcda_list}" ]]; then
  echo "coverage.sh: no .gcda files under ${build_dir}/src/{core,incr}" >&2
  echo "(build with the coverage preset and run ctest first)" >&2
  exit 1
fi

# shellcheck disable=SC2086
gcov --json-format --stdout ${gcda_list} 2>/dev/null |
  python3 "${repo_root}/tools/coverage_aggregate.py" --root "${repo_root}" \
    --prefix src/core/ --prefix src/incr/ > "${summary}"

total_line="$(grep '^TOTAL ' "${summary}")"
pct="$(echo "${total_line}" | awk '{print $2}')"
lines="$(echo "${total_line}" | awk '{print $3}')"
floor="$(grep -v '^#' "${floor_file}" | head -1 | tr -d '[:space:]')"

echo "---- coverage summary (src/core + src/incr) ----"
grep -v '^TOTAL ' "${summary}"
echo "TOTAL: ${pct}% of ${lines} instrumented lines (floor: ${floor}%)"

awk -v pct="${pct}" -v floor="${floor}" 'BEGIN { exit !(pct+0 >= floor+0) }' || {
  echo "coverage gate FAILED: ${pct}% < floor ${floor}%" >&2
  echo "(raise tests or, if a deliberate trade-off, lower ${floor_file})" >&2
  exit 1
}
echo "coverage gate OK"
