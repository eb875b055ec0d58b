#!/usr/bin/env bash
# Byte-identity test for the two executors of the antecedent-shard plan:
# `dmc_cli mine-imp` and `mine-sim` with --top=0 must print the same
# rules in memory, on threads (--threads=3) and on worker processes
# (--shard-workers=2, every task mined by a worker), on a generated
# quest input.
#
# Usage: executor_identity_test.sh <path-to-dmc_cli>
set -u

CLI="$1"

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

INPUT="$TMP/quest.txt"
if ! "$CLI" generate --kind=quest --rows=3000 --cols=300 --seed=3 \
    --output="$INPUT" >/dev/null 2>&1; then
  echo "FAIL: dmc_cli generate exited non-zero" >&2
  exit 1
fi

fail=0

# check <command> <threshold flag>: the in-memory rules, non-empty, then
# the same bytes from each executor.
check() {
  local command="$1" threshold="$2"
  local want="$TMP/$command.memory.txt"
  if ! "$CLI" "$command" --input="$INPUT" "$threshold" --top=0 \
      >"$want" 2>/dev/null; then
    echo "FAIL: $command in memory exited non-zero" >&2
    fail=$((fail + 1))
    return
  fi
  if [ ! -s "$want" ]; then
    echo "FAIL: $command $threshold printed no rules" >&2
    fail=$((fail + 1))
    return
  fi
  local label got before="$fail"
  for label in threads shard; do
    got="$TMP/$command.$label.txt"
    local -a executor
    if [ "$label" = threads ]; then
      executor=(--threads=3)
    else
      mkdir -p "$TMP/work"
      executor=(--shard-workers=2 --workdir="$TMP/work")
    fi
    if ! "$CLI" "$command" --input="$INPUT" "$threshold" --top=0 \
        "${executor[@]}" >"$got" 2>"$got.err"; then
      echo "FAIL: $command ${executor[*]} exited non-zero" >&2
      fail=$((fail + 1))
      continue
    fi
    # Rules the coordinator mined itself would not test the workers.
    if [ "$label" = shard ] &&
        ! grep -q " 0 degraded to in-process" "$got.err"; then
      echo "FAIL: $command ${executor[*]} degraded tasks to in-process" >&2
      fail=$((fail + 1))
    fi
    if ! cmp -s "$want" "$got"; then
      echo "FAIL: $command ${executor[*]} differs from the in-memory" \
           "rules" >&2
      diff "$want" "$got" | head -n 10 >&2
      fail=$((fail + 1))
    fi
  done
  if [ "$fail" -eq "$before" ]; then
    echo "$command $threshold: $(wc -l <"$want") lines, identical three ways"
  fi
}

check mine-imp --minconf=0.6
check mine-sim --minsim=0.3

if [ "$fail" -ne 0 ]; then
  exit 1
fi
