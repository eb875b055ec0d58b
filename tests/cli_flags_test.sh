#!/usr/bin/env bash
# Flag test for dmc_cli, dmc_serve and the benches. An argument the
# command does not read (an unknown flag, a stray word, a value on a
# switch), a malformed integer (a sign, trailing text, overflow of the
# flag's type), a --minconf or --minsim outside (0, 1] or with trailing
# text, a bad --evict entry, a --shard-heartbeat-timeout that is not a
# positive number, an unknown --order, a malformed failpoint seed and
# --order=sort with a file pipeline must exit 2, before any mining, with
# a message naming the flag. Well-formed values of the same flags must
# still mine.
# The flags given pick one mining path (in memory, --threads,
# incremental, --external, --shard-workers); a flag that path does not
# read exits 2 naming the flag and the path (the command, for a flag
# only the other mine command reads), and each path accepts all of its
# own flags. Rules mined inside a support window name the input's
# columns, and --query-lhs/--query-rhs print from the mined rules.
# A --failpoint-seed without --failpoints reseeds the DMC_FAILPOINTS spec
# and exits 2 when none is armed. A bench refuses the same way before it
# generates data, and runs at any positive --scale. dmc_shard_worker
# refuses a malformed descriptor flag the same way.
#
# Every rejected value is refused before a thread or worker process is
# started, so the huge and negative counts below start nothing; every
# dmc_serve rejection comes before its input is read or a socket opens.
#
# Usage: cli_flags_test.sh <path-to-dmc_cli> <testdata-metrics-dir>
#                          <path-to-dmc_serve> <bench-binary-dir>
set -u

CLI="$1"
FIXTURE="$2/fixture_matrix.txt"
SERVE="$3"
BENCH="$4"
WORKER="$(dirname "$CLI")/dmc_shard_worker"

TMP="$(mktemp -d)"
serve_pid=""
cleanup() {
  [ -n "$serve_pid" ] && kill -KILL "$serve_pid" 2>/dev/null
  rm -rf "$TMP"
}
trap cleanup EXIT

fail=0

# refused <text> <command...>: exit 2, <text> named on stderr, and
# nothing printed on stdout. A command that is not refused is cut off
# after 10 s (a daemon that started serving).
refused() {
  local text="$1"
  shift
  timeout 10 "$@" >"$TMP/out.txt" 2>"$TMP/err.txt"
  local rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "FAIL: ${*:2} exited $rc, want 2" >&2
    fail=1
  elif ! grep -q -- "$text" "$TMP/err.txt"; then
    echo "FAIL: ${*:2} did not name $text: $(cat "$TMP/err.txt")" >&2
    fail=1
  elif [ -s "$TMP/out.txt" ]; then
    echo "FAIL: ${*:2} printed output before refusing" >&2
    fail=1
  fi
}

# rejects <flag name> <args...>: mine-imp on the fixture refuses --name.
rejects() {
  local name="$1"
  shift
  refused "--$name" "$CLI" mine-imp --input="$FIXTURE" --minconf=0.8 "$@"
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
rejects order --order

# Arguments no table of the command lists.
rejects thread --thread=2
rejects shard-worker-metrics-dir --shard-worker-metrics-dir="$TMP" \
  --shard-workers=1 --workdir="$TMP"
rejects external --external=1 --workdir="$TMP"
refused "'extra'" "$CLI" mine-imp --input="$FIXTURE" --minconf=0.8 extra
rejects serve-index --serve-index="$TMP/index.bin"
refused --query-lhs "$CLI" mine-sim --input="$FIXTURE" --minsim=0.5 \
  --query-lhs=0
refused --minconf "$CLI" mine-sim --input="$FIXTURE" --minconf=0.5
refused --dataset "$CLI" generate --dataset=quest --output="$TMP/g.txt"
refused --threads "$CLI" stats --input="$FIXTURE" --threads=2

# Thresholds: a whole number in (0, 1].
for value in 0.5x abc 0 -0.5 1.5 nan inf "" 0x1; do
  rejects minconf --minconf="$value"
done
refused --minsim "$CLI" mine-sim --input="$FIXTURE" --minsim=0.5x

# Failpoint seeds and triggers: whole decimal counts, in the flag and in
# the spec alike.
for value in abc -1 18446744073709551616; do
  rejects failpoint-seed --failpoints --failpoint-seed="$value"
done
rejects failpoints --failpoints="seed=abc"
rejects failpoints --failpoints="seed=18446744073709551616"
rejects failpoints --failpoints="io.read=error@99999999999999999999"

# Flags read only by another mining path name the flag and the path.
refused "--min-support=1000: not read by the --external path" "$CLI" \
  mine-imp --input="$FIXTURE" --minconf=0.8 --min-support=1000 --external \
  --workdir="$TMP"
refused "--max-support=9: not read by the --shard-workers path" "$CLI" \
  mine-sim --input="$FIXTURE" --minsim=0.5 --max-support=9 \
  --shard-workers=1 --workdir="$TMP"
rejects min-support --min-support=6 --append="$FIXTURE"
# Flags only the other mine command reads name the command, on any path.
refused "--query-lhs=0: not read by mine-sim" "$CLI" mine-sim \
  --input="$FIXTURE" --minsim=0.5 --query-lhs=0
refused "--query-rhs=3: not read by mine-sim" "$CLI" mine-sim \
  --input="$FIXTURE" --minsim=0.5 --query-rhs=3 --threads=2
refused "--minconf=0.5: not read by mine-sim" "$CLI" mine-sim \
  --input="$FIXTURE" --minconf=0.5
refused "--minsim=0.5: not read by mine-imp" "$CLI" mine-imp \
  --input="$FIXTURE" --minsim=0.5 --external --workdir="$TMP"
rejects threads --external --threads=4 --workdir="$TMP"
rejects threads --shard-workers=1 --threads=2 --workdir="$TMP"
rejects threads --evict=1 --threads=1
rejects external --shard-workers=1 --external --workdir="$TMP"
rejects append --external --append="$FIXTURE" --workdir="$TMP"
rejects window-rows --shard-workers=1 --window-rows=5 --workdir="$TMP"
for flag in --checkpoint="$TMP/ckpt.bin" --resume --io-retries=2 \
    --workdir="$TMP" --shard-tasks-per-worker=2 \
    --shard-checkpoint-dir="$TMP" --shard-no-degrade \
    --shard-heartbeat-timeout=5; do
  refused "${flag}: not read by the in-memory path" "$CLI" mine-imp \
    --input="$FIXTURE" --minconf=0.8 "$flag"
done
for flag in --checkpoint="$TMP/ckpt.bin" --resume --io-retries=2 \
    --workdir="$TMP"; do
  refused "${flag}: not read by the --threads path" "$CLI" mine-imp \
    --input="$FIXTURE" --minconf=0.8 --threads=2 "$flag"
done

# An exact row sort needs the in-memory matrix.
rejects order --order=sort --external --workdir="$TMP"
rejects order --order=sort --shard-workers=1 --workdir="$TMP"
refused --order "$CLI" mine-sim --input="$FIXTURE" --minsim=0.5 \
  --order=sort --external --workdir="$TMP"

refused --rows "$CLI" generate --kind=quest --rows=-10 \
  --output="$TMP/g.txt"

# The shard worker's descriptors are whole numbers, both required.
refused --in-fd "$WORKER" --in-fd=abc --out-fd=1
refused --out-fd "$WORKER" --in-fd=0 --out-fd=-1
refused --out-fd "$WORKER" --in-fd=0
refused "'3'" "$WORKER" --in-fd=0 --out-fd=1 3

# A seed without --failpoints seeds the spec DMC_FAILPOINTS armed, so it
# must behave as --failpoints='SPEC;seed=N' does: the same exit code and
# the same rules. Under SPEC, seed 1 fails the input's open and seed 3
# does not. With no spec armed, there is nothing to seed.
SPEC="matrix.text.open=error@p0.5"
declare -A seeded_rc
for seed in 1 3; do
  DMC_FAILPOINTS="$SPEC" "$CLI" mine-imp --input="$FIXTURE" --minconf=0.8 \
    --failpoint-seed="$seed" >"$TMP/env_seed.txt" 2>/dev/null
  seeded_rc[$seed]=$?
  env -u DMC_FAILPOINTS "$CLI" mine-imp --input="$FIXTURE" --minconf=0.8 \
    --failpoints="$SPEC;seed=$seed" >"$TMP/flag_seed.txt" 2>/dev/null
  flag_rc=$?
  if [ "${seeded_rc[$seed]}" -ne "$flag_rc" ] ||
      ! cmp -s "$TMP/env_seed.txt" "$TMP/flag_seed.txt"; then
    echo "FAIL: --failpoint-seed=$seed under DMC_FAILPOINTS=$SPEC exited" \
      "${seeded_rc[$seed]}, --failpoints='$SPEC;seed=$seed' exited" \
      "$flag_rc, or their rules differ" >&2
    fail=1
  fi
done
if [ "${seeded_rc[1]}" -ne 1 ] || [ "${seeded_rc[3]}" -ne 0 ]; then
  echo "FAIL: seeds 1 and 3 under $SPEC exited ${seeded_rc[1]} and" \
    "${seeded_rc[3]}, want 1 and 0" >&2
  fail=1
fi
refused --failpoint-seed env -u DMC_FAILPOINTS "$CLI" mine-imp \
  --input="$FIXTURE" --minconf=0.8 --failpoint-seed=3

# Benches: --scale is a positive number, and every other argument is
# one the bench's table lists.
refused --scale "$BENCH/bench_table1" --scale=abc
refused --scale "$BENCH/bench_table1" --scale=0
refused --scael "$BENCH/bench_table1" --scael=0.01
refused "'tiny'" "$BENCH/bench_table1" tiny
refused --baseline "$BENCH/bench_kernels" --baseline
refused --threads "$BENCH/bench_serve" --threads=-1
if ! timeout 60 "$BENCH/bench_table1" --scale=0.01 >"$TMP/out.txt" \
    2>"$TMP/err.txt"; then
  echo "FAIL: bench_table1 --scale=0.01 exited non-zero:" \
    "$(cat "$TMP/err.txt")" >&2
  fail=1
fi
# A scale too small for a generator's minimum sizes (bench_table1's
# weblog needs 40 URL sections, that is 8000 * scale >= 40) runs at
# those minimums.
for bench in "$BENCH"/bench_*; do
  name="$(basename "$bench")"
  [ "$name" = bench_micro ] && continue  # reads no --scale
  extra=()
  [ "$name" = bench_serve ] && extra=(--smoke)
  timeout 60 "$bench" --scale=0.00001 "${extra[@]}" >"$TMP/out.txt" \
    2>"$TMP/err.txt"
  rc=$?
  if [ "$rc" -ne 0 ]; then
    echo "FAIL: $name --scale=0.00001 exited $rc:" \
      "$(tail -n 3 "$TMP/err.txt")" >&2
    fail=1
  fi
done

# One accepted set per mining path, holding every flag of its table.
accepts --min-support=1 --max-support=100 --query-lhs=0 --query-rhs=2
accepts --threads=2 --top=3 --order=sort --min-support=1 --max-support=100
accepts --order=buckets --append="$FIXTURE" --evict=1,2 --window-rows=20
accepts --order=identity --external --workdir="$TMP" \
  --checkpoint="$TMP/ext.ckpt" --resume --io-retries=0
accepts --shard-workers=1 --shard-tasks-per-worker=1 \
  --shard-checkpoint-dir="$TMP" --shard-no-degrade \
  --shard-heartbeat-timeout=7.5 --workdir="$TMP" \
  --checkpoint="$TMP/shard.ckpt" --resume --io-retries=1
accepts --minconf=1 --failpoints --failpoint-seed=7 --progress \
  --no-bitmap --no-hundred-phase
accepts --minconf=0.75 --progress=16 --metrics-out="$TMP/m.json" \
  --trace-out="$TMP/t.json" --output="$TMP/rules.txt"

# prints <want-file> <command...>: exit 0 with stdout ending in exactly
# the lines of <want-file>.
prints() {
  local want="$1"
  shift
  if ! "$@" >"$TMP/out.txt" 2>"$TMP/err.txt"; then
    echo "FAIL: ${*:2} exited non-zero: $(cat "$TMP/err.txt")" >&2
    fail=1
  elif ! tail -n "$(wc -l <"$want")" "$TMP/out.txt" | cmp -s "$want" -; then
    echo "FAIL: ${*:2} printed other lines:" >&2
    diff "$want" "$TMP/out.txt" >&2
    fail=1
  fi
}

# --query-lhs answers from the mined rules, on every mine-imp path: the
# top rules, then the rules with antecedent c0 (what --serve-index=FILE
# --query-lhs=0 printed when the index went through a file).
cat >"$TMP/query.txt" <<'EOF'
c0 => c2 (conf=1.0000, ones=7, miss=0)
c1 => c2 (conf=1.0000, ones=7, miss=0)
c3 => c2 (conf=0.8000, ones=5, miss=1)
c0 => c2 (conf=1.0000, ones=7, miss=0)
EOF
for path in "" --threads=2 --evict=0 "--external --workdir=$TMP" \
    "--shard-workers=1 --workdir=$TMP"; do
  # shellcheck disable=SC2086  # split the path's flags
  prints "$TMP/query.txt" "$CLI" mine-imp --input="$FIXTURE" --minconf=0.8 \
    --query-lhs=0 $path
  if [ "$(wc -l <"$TMP/out.txt")" -ne 4 ]; then
    echo "FAIL: mine-imp --query-lhs=0 $path printed" \
      "$(wc -l <"$TMP/out.txt") lines, want 4" >&2
    fail=1
  fi
done

# Inside a support window the rules, and the --query-* columns, are the
# input's: every rule the window mines is a rule of the whole input,
# with the same counts.
for command in "mine-imp --minconf=0.5" "mine-sim --minsim=0.3"; do
  for path in "" --threads=2; do
    # shellcheck disable=SC2086  # split the command and path flags
    "$CLI" $command --input="$FIXTURE" --top=0 $path \
      >"$TMP/whole.txt" 2>/dev/null
    # shellcheck disable=SC2086
    "$CLI" $command --input="$FIXTURE" --top=0 $path --min-support=6 \
      >"$TMP/window.txt" 2>/dev/null
    if [ ! -s "$TMP/window.txt" ] ||
        grep -vxF -f "$TMP/whole.txt" "$TMP/window.txt" >"$TMP/extra.txt"; then
      echo "FAIL: $command $path --min-support=6 printed rules the whole" \
        "input does not hold: $(cat "$TMP/extra.txt")" >&2
      fail=1
    fi
  done
done
cat >"$TMP/window_query.txt" <<'EOF'
c4 => c0 (conf=0.6667, ones=6, miss=2)
c4 => c2 (conf=0.6667, ones=6, miss=2)
EOF
prints "$TMP/window_query.txt" "$CLI" mine-imp --input="$FIXTURE" \
  --minconf=0.5 --min-support=6 --query-lhs=4

# dmc_serve: each command reads its own flags, with its own bounds.
refused --port "$SERVE" serve --input="$FIXTURE" --port=70000
refused --minconf "$SERVE" serve --input="$FIXTURE" --port=0 --minconf=0.9x
refused --drain-timeout "$SERVE" serve --input="$FIXTURE" --port=0 \
  --drain-timeout=0
refused --drain-timeout "$SERVE" serve --input="$FIXTURE" --port=0 \
  --drain-timeout=inf
refused --window-rows "$SERVE" serve --input="$FIXTURE" --port=0 \
  --window-rows=-1
refused --host "$SERVE" serve --input="$FIXTURE" --port=0 --host=localhost
refused --failpoints "$SERVE" serve --input="$FIXTURE" --port=0 \
  --failpoints="seed=abc"
refused --port "$SERVE" query --port=70000 --top=1
refused --lhs "$SERVE" query --port=1 --lhs=4294967296
refused --top "$SERVE" query --port=1 --top=-1
refused --timeout "$SERVE" query --port=1 --top=1 --timeout=0
refused --timeout "$SERVE" stats --port=1 --timeout=abc
refused --rows "$SERVE" evict --port=1 --rows=abc
refused --rows "$SERVE" append --port=1 --input="$FIXTURE" --rows=1
refused --top "$SERVE" stats --port=1 --top=1
refused "'now'" "$SERVE" stats --port=1 now

# Every flag of every dmc_serve command, accepted: a daemon on an
# ephemeral port, then each client command against it.
"$SERVE" serve --input="$FIXTURE" --port=0 --bind=127.0.0.1 --minconf=0.5 \
  --drain-timeout=2 --window-rows=1000 --metrics-out="$TMP/serve.json" \
  >"$TMP/serve.log" 2>&1 &
serve_pid=$!
port=""
for _ in $(seq 1 100); do
  port="$(sed -n 's/^listening on .*:\([0-9][0-9]*\)$/\1/p' "$TMP/serve.log")"
  [ -n "$port" ] && break
  sleep 0.05
done
if [ -z "$port" ]; then
  echo "FAIL: dmc_serve serve never announced its port" >&2
  fail=1
else
  client=(--port="$port" --host=127.0.0.1 --timeout=5)
  for args in "stats" "query --top=3" "query --lhs=0" "query --rhs=1" \
      "append --input=$FIXTURE" "evict --rows=1"; do
    # shellcheck disable=SC2086  # split the command from its flags
    if ! "$SERVE" $args "${client[@]}" >/dev/null 2>"$TMP/err.txt"; then
      echo "FAIL: dmc_serve $args exited non-zero: $(cat "$TMP/err.txt")" >&2
      fail=1
    fi
  done
  kill -TERM "$serve_pid"
  if ! wait "$serve_pid"; then
    echo "FAIL: dmc_serve serve did not drain cleanly" >&2
    fail=1
  fi
  serve_pid=""
fi

if [ "$fail" -ne 0 ]; then
  exit 1
fi
echo "flag values checked"
