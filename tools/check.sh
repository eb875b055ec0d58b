#!/usr/bin/env bash
# check.sh — one-shot correctness gate. Runs, in order:
#
#   (a) warnings-as-errors build + full ctest        (preset: default)
#   (b) ASan+UBSan build + full ctest                (preset: asan-ubsan)
#   (c) TSan build + parallel/observe/cancellation/fault/rule-index/
#       serve/shard-coordinator stress
#   Stages (c) through (g2) pick their tests by ctest label (-L), which
#   tests/CMakeLists.txt gives every test of a binary, so renaming a test
#   cannot drop it from its stage.
#   (d) dmc_lint over src/ + tools/
#   (e) metrics-schema smoke check (dmc_cli --metrics-out, in-memory and
#       --external, whose peak_counter_bytes must agree), then a resume
#       smoke per row order (default and identity): a checkpointed
#       --external run whose bucket spill is damaged in place must not
#       resume, and must print the same rules; then a line-ending smoke:
#       a CRLF copy of the fixture without its final newline must mine
#       to the same rules, in memory and --external
#   (e2) serve smoke: dmc_serve daemon round-trip over a real socket
#   (f) fault-injection sweep under ASan+UBSan (differential exactness)
#   (f2) kill-a-worker shard sweep under ASan+UBSan (byte-identity under
#        SIGKILL/crash/hang/failpoints, sanitized coordinator AND workers)
#   (g) incremental-vs-batch differential sweep under ASan+UBSan
#   (g2) sliding-window differential sweep under ASan+UBSan (append/evict
#        schedules byte-identical to fresh window mines)
#   (h) coverage build + gate against tools/coverage_floor.txt
#   (i) perf smoke: release-native build + bench_kernels --json-out schema
#   (i2) scan bench regression gate vs the committed BENCH_bitmap.json
#        (>10% rows_per_sec drop on any scan_*_dense or scan_*_sparse
#        variant fails — both sides of the vector-sweep selection)
#   (i3) incremental/window scenario gate vs the committed BENCH_window.json
#        (>10% rows_per_sec drop on any append/slide scenario fails)
#   (j) clang -Wthread-safety -Werror build          (preset: thread-safety)
#   (k) clang-tidy over the concurrency-sensitive TUs (.clang-tidy profile)
#
# Stages (j) and (k) need clang++ / clang-tidy on PATH and are skipped
# with a notice when the toolchain lacks them (the annotations compile to
# nothing on GCC, so the default build still exercises the same sources).
#
# Exits nonzero on the first failure. Pass --fast to skip the sanitizer,
# coverage, perf and clang-analysis stages, e.g. for a pre-commit hook.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "${repo_root}"
jobs="$(nproc 2>/dev/null || echo 4)"
fast=0
[[ "${1:-}" == "--fast" ]] && fast=1

step() { printf '\n==== %s ====\n' "$*"; }

step "(a) werror build + ctest"
cmake --preset default >/dev/null
cmake --build --preset default -j "${jobs}"
ctest --preset default -j "${jobs}"

if [[ "${fast}" -eq 0 ]]; then
  step "(b) asan-ubsan build + ctest"
  cmake --preset asan-ubsan >/dev/null
  cmake --build --preset asan-ubsan -j "${jobs}"
  ctest --preset asan-ubsan -j "${jobs}"

  step "(c) tsan build + parallel/observe/cancellation/fault/rule-index/serve/shard/window"
  cmake --preset tsan >/dev/null
  cmake --build --preset tsan -j "${jobs}"
  # RuleIndexConcurrency races queries against Publish/Load snapshot swaps;
  # ServeStressTest races wire readers against the ingest thread's publishes;
  # ShardStressTest races concurrent shard coordinators (fork/exec fleets)
  # over one shared MetricsRegistry; WindowStressTest races wire readers
  # against interleaved append/evict publishes and window auto-slides.
  ctest --test-dir build-tsan -L '^tsan$' -j "${jobs}" --output-on-failure
fi

step "(d) dmc_lint over src/ + tools/"
DMC_BUILD_DIR="${repo_root}/build" "${repo_root}/tools/dmc_check.sh"

step "(e) metrics-schema smoke check"
metrics_tmp="$(mktemp -d)"
trap 'rm -rf "${metrics_tmp}"' EXIT
"${repo_root}/build/tools/dmc_cli" mine-imp \
  --input="${repo_root}/tests/testdata/metrics/fixture_matrix.txt" \
  --minconf=0.8 --metrics-out="${metrics_tmp}/metrics.json" >/dev/null
for field in '"schema_version": 1' '"mining"' '"peak_counter_bytes"' \
             '"rules_total"'; do
  grep -qF "${field}" "${metrics_tmp}/metrics.json" || {
    echo "metrics schema smoke check failed: missing ${field}" >&2
    exit 1
  }
done
# External arm: the --external document carries the scan's own "mining"
# block, and its peak_counter_bytes (the first one, inside "mining")
# equals the in-memory mine's — the external replay is the same scan in
# the same density-bucket order.
"${repo_root}/build/tools/dmc_cli" mine-imp \
  --input="${repo_root}/tests/testdata/metrics/fixture_matrix.txt" \
  --minconf=0.8 --external --workdir="${metrics_tmp}" \
  --metrics-out="${metrics_tmp}/external.json" >/dev/null
for field in '"schema_version": 1' '"mining"' '"external"' \
             '"peak_counter_bytes"' '"rules_total"'; do
  grep -qF "${field}" "${metrics_tmp}/external.json" || {
    echo "external metrics schema smoke check failed: missing ${field}" >&2
    exit 1
  }
done
first_peak() { grep -m1 '"peak_counter_bytes"' "$1"; }
if [[ "$(first_peak "${metrics_tmp}/metrics.json")" != \
      "$(first_peak "${metrics_tmp}/external.json")" ]]; then
  echo "external peak_counter_bytes differs from the in-memory mine" >&2
  exit 1
fi
echo "metrics schema OK (in-memory and external)"
# Resume arm, once per row order: the default density buckets, and
# identity, which spills one bucket in input order. Checkpoint an
# external run, overwrite one byte in the middle of a bucket spill
# without changing its size, then --resume. Resume reads every spill
# back before it trusts the checkpoint, so the run must fall back to a
# fresh one: identical rules, no "(resumed)".
resume_smoke() {
  local order="$1"
  local dir="${metrics_tmp}/resume_${order}"
  mkdir -p "${dir}"
  local args=(mine-imp
    --input="${repo_root}/tests/testdata/metrics/fixture_matrix.txt"
    --minconf=0.8 --external --workdir="${dir}"
    --checkpoint="${dir}/ckpt.bin")
  [[ "${order}" == "default" ]] || args+=(--order="${order}")
  "${repo_root}/build/tools/dmc_cli" "${args[@]}" \
    >"${dir}.fresh.txt" 2>/dev/null
  local bucket
  bucket="$(find "${dir}" -name 'dmc_bucket_*' -print -quit)"
  if [[ -z "${bucket}" ]]; then
    echo "resume smoke (${order}): the checkpointed run kept no bucket" \
         "spill" >&2
    exit 1
  fi
  local bucket_size middle old_byte
  bucket_size="$(stat -c %s "${bucket}")"
  middle=$((bucket_size / 2))
  old_byte="$(od -An -tu1 -j "${middle}" -N1 "${bucket}" | tr -d ' ')"
  # shellcheck disable=SC2059  # the format is the escaped byte itself
  printf "$(printf '\\x%02x' $((old_byte ^ 0x55)))" |
    dd of="${bucket}" bs=1 seek="${middle}" count=1 conv=notrunc status=none
  if [[ "$(stat -c %s "${bucket}")" != "${bucket_size}" ]]; then
    echo "resume smoke (${order}): damaging the spill changed its size" >&2
    exit 1
  fi
  if ! "${repo_root}/build/tools/dmc_cli" "${args[@]}" --resume \
       >"${dir}.resumed.txt" 2>"${dir}.err"; then
    echo "resume smoke (${order}): the run over a damaged spill failed:" >&2
    cat "${dir}.err" >&2
    exit 1
  fi
  if grep -qF '(resumed)' "${dir}.err"; then
    echo "resume smoke (${order}): a damaged bucket spill was resumed" >&2
    exit 1
  fi
  if ! cmp -s "${dir}.fresh.txt" "${dir}.resumed.txt"; then
    echo "resume smoke (${order}): rules differ after resuming over a" \
         "damaged spill" >&2
    exit 1
  fi
  echo "resume smoke OK (${order} order: damaged spill fell back to a" \
       "fresh run)"
}
resume_smoke default
resume_smoke identity
# Line-ending arm: a CRLF copy of the fixture with its final newline
# removed must mine to the same rules as the original, in memory and
# --external: '\r' separates ids, and a last line without '\n' is a row.
fixture="${repo_root}/tests/testdata/metrics/fixture_matrix.txt"
crlf="${metrics_tmp}/fixture_crlf.txt"
sed 's/$/\r/' "${fixture}" | head -c -1 >"${crlf}"
for mode in memory external; do
  mode_args=(--minconf=0.8 --top=0)
  [[ "${mode}" == "memory" ]] ||
    mode_args+=(--external --workdir="${metrics_tmp}")
  "${repo_root}/build/tools/dmc_cli" mine-imp --input="${fixture}" \
    "${mode_args[@]}" >"${metrics_tmp}/lf_${mode}.txt" 2>/dev/null
  "${repo_root}/build/tools/dmc_cli" mine-imp --input="${crlf}" \
    "${mode_args[@]}" >"${metrics_tmp}/crlf_${mode}.txt" 2>/dev/null
  if [[ ! -s "${metrics_tmp}/lf_${mode}.txt" ]] ||
     ! cmp -s "${metrics_tmp}/lf_${mode}.txt" \
       "${metrics_tmp}/crlf_${mode}.txt"; then
    echo "line-ending smoke (${mode}): the CRLF copy mined other rules" >&2
    exit 1
  fi
done
echo "line-ending smoke OK (CRLF, no final newline: in memory and external)"

step "(e2) serve smoke: dmc_serve daemon round-trip"
# Boots the daemon on an ephemeral port against the fixture matrix, then
# drives it with the client subcommands: stats must show the seed
# generation, a query must answer, an append must get mined and
# published (generation bump), and SIGTERM must drain to a clean exit.
serve_log="${metrics_tmp}/serve.log"
fixture="${repo_root}/tests/testdata/metrics/fixture_matrix.txt"
dmc_serve="${repo_root}/build/tools/dmc_serve"
"${dmc_serve}" serve --input="${fixture}" --minconf=0.5 --port=0 \
  >"${serve_log}" &
serve_pid=$!
port=""
for _ in $(seq 1 100); do
  port="$(sed -n 's/^listening on .*:\([0-9][0-9]*\)$/\1/p' "${serve_log}")"
  [[ -n "${port}" ]] && break
  sleep 0.05
done
if [[ -z "${port}" ]]; then
  echo "dmc_serve never announced its port" >&2
  kill "${serve_pid}" 2>/dev/null || true
  exit 1
fi
stats_out="$("${dmc_serve}" stats --port="${port}")"
grep -q '^generation 1$' <<<"${stats_out}" || {
  echo "serve smoke: unexpected seed stats" >&2
  kill -TERM "${serve_pid}"
  exit 1
}
query_out="$("${dmc_serve}" query --port="${port}" --top=5)"
grep -q '^generation 1,' <<<"${query_out}" || {
  echo "serve smoke: query against the seed snapshot failed" >&2
  kill -TERM "${serve_pid}"
  exit 1
}
"${dmc_serve}" append --port="${port}" --input="${fixture}" >/dev/null
gen=""
for _ in $(seq 1 100); do
  gen="$("${dmc_serve}" stats --port="${port}" \
    | sed -n 's/^generation \([0-9][0-9]*\)$/\1/p')"
  [[ "${gen}" == "2" ]] && break
  sleep 0.05
done
if [[ "${gen}" != "2" ]]; then
  echo "serve smoke: appended batch was never published" >&2
  kill -TERM "${serve_pid}"
  exit 1
fi
kill -TERM "${serve_pid}"
wait "${serve_pid}"
grep -q '^drained:' "${serve_log}" || {
  echo "serve smoke: daemon did not drain cleanly" >&2
  exit 1
}
# In-process load smoke: bench_serve spins up its own server and fails
# itself on errors, zero published snapshots, or absurdly low throughput.
cmake --build --preset default -j "${jobs}" --target bench_serve >/dev/null
"${repo_root}/build/bench/bench_serve" --smoke >/dev/null
echo "serve smoke OK"

if [[ "${fast}" -eq 0 ]]; then
  step "(f) fault-injection sweep under asan-ubsan"
  # The differential sweep injects faults at every registered I/O site and
  # proves each run either fails cleanly or reproduces the fault-free rule
  # set exactly. Running it under ASan+UBSan additionally proves the error
  # paths leak nothing and tear nothing.
  sweep_log="$(mktemp)"
  ctest --test-dir build-asan -L '^fault-sweep$' \
    -j "${jobs}" --output-on-failure | tee "${sweep_log}"
  # ctest can exit 0 without running anything (e.g. bad --test-dir);
  # insist the sweep actually executed tests.
  grep -q 'tests passed' "${sweep_log}" || {
    echo "fault-injection sweep did not run" >&2
    rm -f "${sweep_log}"
    exit 1
  }
  rm -f "${sweep_log}"

  step "(f2) kill-a-worker shard sweep under asan-ubsan"
  # The shard differential battery SIGKILLs workers, arms crash/hang
  # hooks in every child, points the coordinator at an unexecutable
  # binary, forces the shard.* failpoints, and tears task checkpoints —
  # every run must end byte-identical to the single-process miner or
  # with a clean Status. The worker binary is compile-defined from the
  # same build tree, so the forked children are sanitized too.
  shard_log="$(mktemp)"
  ctest --test-dir build-asan -L '^shard-sweep$' \
    -j "${jobs}" --output-on-failure | tee "${shard_log}"
  grep -q 'tests passed' "${shard_log}" || {
    echo "shard kill-a-worker sweep did not run" >&2
    rm -f "${shard_log}"
    exit 1
  }
  rm -f "${shard_log}"

  step "(g) incremental-vs-batch differential sweep under asan-ubsan"
  # The battery appends randomized batch schedules (empty batches,
  # single rows, all-zero rows, widening deltas) and insists the
  # incremental rule set is byte-identical to a fresh batch mine of the
  # concatenation, across every merge kernel. Under ASan+UBSan it also
  # proves the append hot path stays clean.
  incr_log="$(mktemp)"
  ctest --test-dir build-asan -L '^incr-sweep$' \
    -j "${jobs}" --output-on-failure | tee "${incr_log}"
  grep -q 'tests passed' "${incr_log}" || {
    echo "incremental differential sweep did not run" >&2
    rm -f "${incr_log}"
    exit 1
  }
  rm -f "${incr_log}"

  step "(g2) sliding-window differential sweep under asan-ubsan"
  # The battery drives randomized append/evict schedules (plus the
  # count-bounded auto-slide) through the windowed miners and insists
  # rules AND memory accounting stay byte-identical to a fresh batch
  # mine of the surviving window, across every merge kernel. Under
  # ASan+UBSan it also proves the eviction hot path stays clean.
  window_log="$(mktemp)"
  ctest --test-dir build-asan -L '^window-sweep$' \
    -j "${jobs}" --output-on-failure | tee "${window_log}"
  grep -q 'tests passed' "${window_log}" || {
    echo "sliding-window differential sweep did not run" >&2
    rm -f "${window_log}"
    exit 1
  }
  rm -f "${window_log}"

  step "(h) coverage build + floor gate"
  "${repo_root}/tools/coverage.sh"

  step "(i) perf smoke: release-native bench_kernels --json-out"
  # Builds the host-tuned release preset and runs the kernel microbench at a
  # tiny scale, then checks the emitted JSON carries the committed schema
  # (schema_version / records / bench / rows_per_sec / peak_counter_bytes).
  # This is a plumbing check, not a performance gate: it proves the preset
  # configures, the SIMD dispatch links, and --json-out round-trips.
  cmake --preset release-native >/dev/null
  cmake --build --preset release-native -j "${jobs}" --target bench_kernels
  "${repo_root}/build-native/bench/bench_kernels" --scale=0.25 \
    --json-out="${metrics_tmp}/bench.json" >/dev/null
  for field in '"schema_version": 1' '"records"' '"bench"' '"rows_per_sec"' \
               '"peak_counter_bytes"'; do
    grep -qF "${field}" "${metrics_tmp}/bench.json" || {
      echo "bench json schema smoke check failed: missing ${field}" >&2
      exit 1
    }
  done
  echo "bench json schema OK"

  step "(i2) scan bench regression gate vs BENCH_bitmap.json"
  # Re-runs the dense scans (kSimd on the vector sweep) and the sparse
  # Quest scans (kSimd on the row-mask merge) at the committed baseline's
  # scale and lets bench_kernels compare rows_per_sec per kernel variant
  # against BENCH_bitmap.json; any variant dropping below 90% of the
  # committed throughput fails the gate. This one IS a performance gate
  # — noise on a loaded machine can trip it, in which case rerun on a
  # quiet one.
  "${repo_root}/build-native/bench/bench_kernels" --scale=1 \
    --json-out="${metrics_tmp}/bench_full.json" \
    --baseline="${repo_root}/BENCH_bitmap.json" >/dev/null || {
    echo "scan throughput regression vs BENCH_bitmap.json" >&2
    exit 1
  }
  echo "scan regression gate OK"

  step "(i3) incremental/window scenario gate vs BENCH_window.json"
  # Re-runs the append-batch and window-slide scenarios (google-benchmark
  # microbenches filtered out) and compares each scenario's rows_per_sec
  # against the committed BENCH_window.json; any scenario dropping below
  # 90% of the committed throughput fails. Like (i2) this IS a
  # performance gate — rerun on a quiet machine if noise trips it.
  cmake --build --preset release-native -j "${jobs}" --target bench_micro
  "${repo_root}/build-native/bench/bench_micro" --benchmark_filter='^$' \
    --json-out="${metrics_tmp}/bench_window.json" \
    --baseline="${repo_root}/BENCH_window.json" >/dev/null || {
    echo "incremental/window scenario regression vs BENCH_window.json" >&2
    exit 1
  }
  echo "incremental/window scenario gate OK"

  step "(j) clang -Wthread-safety -Werror build"
  # The DMC_GUARDED_BY/DMC_REQUIRES annotations (util/thread_annotations.h)
  # only carry analysis weight under Clang; this stage proves every
  # annotated mutex-guarded member is accessed under its lock.
  if command -v clang++ >/dev/null 2>&1; then
    cmake --preset thread-safety >/dev/null
    cmake --build --preset thread-safety -j "${jobs}"
    echo "thread-safety analysis OK"
  else
    echo "clang++ not on PATH; skipping thread-safety analysis"
  fi

  step "(k) clang-tidy concurrency profile"
  # .clang-tidy pins the check list (bugprone/performance/concurrency);
  # run it over the TUs that own locks, atomics, or shared state.
  if command -v clang-tidy >/dev/null 2>&1; then
    clang-tidy -p "${repo_root}/build" --quiet \
      "${repo_root}"/src/core/parallel_dmc.cc \
      "${repo_root}"/src/observe/metrics.cc \
      "${repo_root}"/src/observe/trace.cc \
      "${repo_root}"/src/rules/rule_index.cc \
      "${repo_root}"/src/util/failpoint.cc \
      "${repo_root}"/src/util/logging.cc \
      "${repo_root}"/src/util/atomic_io.cc
    echo "clang-tidy OK"
  else
    echo "clang-tidy not on PATH; skipping clang-tidy stage"
  fi
fi

step "all checks passed"
