#!/usr/bin/env bash
# Negative tests for the concurrency-correctness gates (run via ctest).
#
#   compile <repo-root>
#       The seeded GUARDED_BY violation in
#       tests/wthread_negative/guarded_by_violation.cc must FAIL to
#       compile under `clang++ -Wthread-safety -Werror=thread-safety`. To
#       guarantee a failure can only come from the analysis, the file is
#       first compiled WITHOUT the flag and must succeed. Exits 77 (ctest
#       skip) when clang++ is not installed — -Wthread-safety needs Clang.
#
#   rank <binary>
#       The seeded lock-rank inversion binary must abort with the
#       lock-hierarchy checker's message naming both locks.

set -u

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

[[ $# -eq 2 ]] || fail "usage: $0 {compile <repo-root> | rank <binary>}"
mode="$1"

case "$mode" in
  compile)
    root="$2"
    cxx=$(command -v clang++ || true)
    if [[ -z "$cxx" ]]; then
      echo "SKIP: clang++ not installed (-Wthread-safety is Clang-only)"
      exit 77
    fi
    src="$root/tests/wthread_negative/guarded_by_violation.cc"
    log=$(mktemp)
    trap 'rm -f "$log"' EXIT
    if ! "$cxx" -std=c++20 -fsyntax-only -I "$root" "$src" 2>"$log"; then
      cat "$log" >&2
      fail "seeded file does not compile even without -Wthread-safety"
    fi
    if "$cxx" -std=c++20 -fsyntax-only -Wthread-safety \
        -Werror=thread-safety -I "$root" "$src" 2>"$log"; then
      fail "seeded GUARDED_BY violation compiled under -Werror=thread-safety"
    fi
    grep -q "thread-safety" "$log" ||
      { cat "$log" >&2; fail "compile failed for a non-thread-safety reason"; }
    grep -q "value_" "$log" ||
      { cat "$log" >&2; fail "diagnostic does not name the unguarded field"; }
    echo "PASS: seeded violation rejected by -Wthread-safety"
    ;;
  rank)
    binary="$2"
    log=$(mktemp)
    trap 'rm -f "$log"' EXIT
    "$binary" >"$log" 2>&1
    status=$?
    [[ "$status" -ne 0 ]] ||
      { cat "$log" >&2; fail "seeded rank inversion did not abort"; }
    grep -q "lock rank violation" "$log" ||
      { cat "$log" >&2; fail "abort did not come from the rank checker"; }
    grep -q "seeded.low" "$log" && grep -q "seeded.high" "$log" ||
      { cat "$log" >&2; fail "checker message does not name both locks"; }
    echo "PASS: seeded rank inversion aborted with both lock names"
    ;;
  *)
    fail "unknown mode '$mode'"
    ;;
esac
