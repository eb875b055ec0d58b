#!/usr/bin/env bash
# Upper-state guard for the AVX2 kernels: in the given static libraries,
# every function whose name contains "Avx2" and that uses a %ymm register
# must also execute vzeroupper. Each of them hands off to scalar code
# compiled without AVX, and SSE instructions run with dirty upper ymm
# halves pay a penalty on every instruction; GCC does not always emit the
# vzeroupper itself, so the kernels call _mm256_zeroupper() explicitly.
# Skips (exit 77) when objdump is missing, a library is not x86-64, or no
# AVX2 kernel is out of line (under -march=native they are inlined into
# code that is all VEX-encoded, so there is no SSE code to protect).
#
# Usage: avx_upper_state_test.sh <lib.a>...
set -u

if ! command -v objdump >/dev/null 2>&1; then
  echo "SKIP: objdump not found"
  exit 77
fi

fail=0
kernels=0
for lib in "$@"; do
  if [ ! -f "$lib" ]; then
    echo "FAIL: no such library: $lib" >&2
    exit 1
  fi
  if ! objdump -f "$lib" 2>/dev/null | grep -q "x86-64"; then
    echo "SKIP: $lib is not an x86-64 library"
    exit 77
  fi
  # One line per AVX2 function: "<verdict> <name>", where the verdict is
  # ok (vzeroupper present or no %ymm use) or bad.
  report="$(objdump -d --no-show-raw-insn "$lib" | awk '
    /^[0-9a-f]+ <[^>]*>:$/ { name = $2; if (name ~ /Avx2/) seen[name] = 1; next }
    name ~ /Avx2/ {
      if ($0 ~ /%ymm/) ymm[name] = 1
      if ($0 ~ /vzeroupper/) vzu[name] = 1
    }
    END {
      for (n in seen) print ((n in ymm) && !(n in vzu) ? "bad " : "ok ") n
    }')"
  while read -r verdict name; do
    [ -z "$verdict" ] && continue
    kernels=$((kernels + 1))
    if [ "$verdict" = bad ]; then
      echo "FAIL: $name in $lib uses %ymm registers but has no vzeroupper" >&2
      fail=1
    fi
  done <<< "$report"
done

if [ "$kernels" -eq 0 ]; then
  echo "SKIP: no out-of-line AVX2 kernel in $*"
  exit 77
fi
[ "$fail" -eq 0 ] && echo "avx upper state: $kernels AVX2 kernels clean"
exit "$fail"
