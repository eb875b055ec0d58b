#!/usr/bin/env bash
# Flag-value test for dmc_cli: a malformed integer flag (a sign, trailing
# text, overflow of the flag's type), a malformed --evict entry, a
# --shard-heartbeat-timeout that is not a positive number and an unknown
# --order must exit 2, before any mining, with a message naming the
# flag. Well-formed values of the same flags must still mine.
#
# Every rejected value is refused before a thread or worker process is
# started, so the huge and negative counts below start nothing.
#
# Usage: cli_flags_test.sh <path-to-dmc_cli> <testdata-metrics-dir>
set -u

CLI="$1"
FIXTURE="$2/fixture_matrix.txt"

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

fail=0

# rejects <flag name> <args...>: exit 2, the flag named on stderr, and
# nothing printed on stdout.
rejects() {
  local name="$1"
  shift
  "$CLI" mine-imp --input="$FIXTURE" --minconf=0.8 "$@" \
      >"$TMP/out.txt" 2>"$TMP/err.txt"
  local rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "FAIL: $* exited $rc, want 2" >&2
    fail=1
  elif ! grep -q -- "--$name" "$TMP/err.txt"; then
    echo "FAIL: $* did not name --$name: $(cat "$TMP/err.txt")" >&2
    fail=1
  elif [ -s "$TMP/out.txt" ]; then
    echo "FAIL: $* printed rules before rejecting the flag" >&2
    fail=1
  fi
}

# accepts <args...>: exit 0 with rules on stdout.
accepts() {
  if ! "$CLI" mine-imp --input="$FIXTURE" --minconf=0.8 "$@" \
      >"$TMP/out.txt" 2>"$TMP/err.txt"; then
    echo "FAIL: $* exited non-zero: $(cat "$TMP/err.txt")" >&2
    fail=1
  elif [ ! -s "$TMP/out.txt" ]; then
    echo "FAIL: $* printed no rules" >&2
    fail=1
  fi
}

for value in abc -1 +2 2x 1.5 "" 4294967296 99999999999999999999; do
  rejects threads --threads="$value"
done
for value in -1 2147483648 0x2; do
  rejects shard-workers --shard-workers="$value" --workdir="$TMP"
  rejects shard-tasks-per-worker --shard-tasks-per-worker="$value" \
    --shard-workers=1 --workdir="$TMP"
done
rejects io-retries --io-retries=three --external --workdir="$TMP"
rejects top --top=-5
rejects min-support --min-support=1e3
rejects window-rows --window-rows=10rows
rejects evict --evict=1,x
rejects evict --evict=-1
for value in abc 0 -1 inf nan 5s; do
  rejects shard-heartbeat-timeout --shard-heartbeat-timeout="$value" \
    --shard-workers=1 --workdir="$TMP"
done
rejects order --order=bukets
rejects order --order=

if ! "$CLI" generate --kind=quest --rows=-10 --output="$TMP/g.txt" \
    >/dev/null 2>"$TMP/err.txt"; then
  grep -q -- "--rows" "$TMP/err.txt" ||
    { echo "FAIL: generate --rows=-10 did not name --rows" >&2; fail=1; }
else
  echo "FAIL: generate --rows=-10 exited 0" >&2
  fail=1
fi

accepts --threads=2 --top=3 --order=sort
accepts --order=identity --min-support=1 --io-retries=0 --external \
  --workdir="$TMP"
accepts --order=buckets --evict=1,2
accepts --shard-workers=1 --shard-tasks-per-worker=1 \
  --shard-heartbeat-timeout=7.5 --workdir="$TMP"

if [ "$fail" -ne 0 ]; then
  exit 1
fi
echo "flag values checked"
