#!/usr/bin/env bash
# Sanitizer gate for the multiprocessor collection path and the
# crash-safety fault-injection tests.
#
# Builds two extra configurations and runs the test suite under each:
#   build-tsan  - ThreadSanitizer: the lock-free driver handoff, the daemon
#                 drain thread, and the per-CPU worker threads must be
#                 data-race-free (the paper's "no synchronization needed"
#                 claim, enforced).
#   build-asan  - AddressSanitizer + UndefinedBehaviorSanitizer: the full
#                 suite, including the profile-database crash/corruption
#                 tests (ProfileDbCrash*, DeserializeAdversarial*), so the
#                 fault-injection and corrupt-input paths run sanitized.
#                 Undefined behaviour aborts (-fno-sanitize-recover).
#
# New/rewritten targets build with -Werror (wired in the CMakeLists); any
# warning in them fails the build and therefore this script.
#
# Usage: scripts/check.sh [--tsan-only|--asan-only|--wthread-only] [--fast]
#                         [--lint] [--wthread] [--bench-smoke]
#   --fast runs only the concurrency-relevant tests under TSan and the
#   crash/corruption/durability and simulator-core tests (CPU, kernel,
#   caches, TLBs, write buffer, ISA, golden digests) under ASan (the full
#   suites are slow on small hosts). Both filters include ParallelFor,
#   whose per-call threads work on the caller's stack frame until they are
#   joined. Both also include PerfCounters, DoubleSampling, IssueHorizon
#   and TruthOnRequest: their 2-CPU cases run the counters' issue horizon
#   and an unrecorded kernel on the per-CPU worker threads, and an
#   unrecorded run must never index the registry's empty truth vectors.
#   Both also include ProcessRelease:
#   under TSan an exited process's address space is released on the
#   per-CPU worker threads, and under ASan a memo left pointing into a
#   released page would be a use-after-free. Both also include Session:
#   its fleet case runs the host threads and the background compactor at
#   once, the handoff src/workloads/session.cc documents. No bench smoke
#   gates on RSS: ASan's quarantine keeps freed memory resident.
#   --lint additionally runs clang-tidy (config in .clang-tidy) over the
#   compile-commands database. Skipped with a notice when clang-tidy is not
#   installed, so the gate stays usable on minimal containers.
#   --wthread additionally builds build-wthread with clang++ and
#   -Wthread-safety -Werror=thread-safety (the static lock-discipline
#   gate: every GUARDED_BY/REQUIRES contract in src/ is compiler-checked)
#   and runs the negative compile test. Skipped with a notice when clang++
#   is not installed (same pattern as --lint). --wthread-only runs just
#   that gate.
#   --bench-smoke additionally runs bench_analysis_scaling --smoke,
#   bench_continuous --smoke, bench_fleet_scaling --smoke,
#   bench_table4_overhead_components --smoke, and bench_mem_sampling
#   --smoke in each sanitized build, so the parallel analysis engine, its
#   result cache, the continuous epoch-roll path, the fleet shard
#   collection + merge-on-read path, the Section 5.4 collection hot path
#   (6-way swap-to-front table + batched daemon ingest vs the 1997
#   baseline, with its miss-path/daemon-cost gates), and the wide-record
#   memory-sampling path (fraction-0 neutrality + false-sharing detection
#   gates) are exercised end-to-end under TSan/ASan (tiny sizes).

set -euo pipefail
cd "$(dirname "$0")/.."

JOBS=$(nproc)
RUN_TSAN=1
RUN_ASAN=1
FAST=0
LINT=0
WTHREAD=0
BENCH_SMOKE=0
for arg in "$@"; do
  case "$arg" in
    --tsan-only) RUN_ASAN=0 ;;
    --asan-only) RUN_TSAN=0 ;;
    --wthread-only) RUN_TSAN=0; RUN_ASAN=0; WTHREAD=1 ;;
    --fast) FAST=1 ;;
    --lint) LINT=1 ;;
    --wthread) WTHREAD=1 ;;
    --bench-smoke) BENCH_SMOKE=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

run_lint() {
  local tidy
  tidy=$(command -v clang-tidy || true)
  if [[ -z "$tidy" ]]; then
    echo "=== lint skipped: clang-tidy not installed ==="
    return 0
  fi
  echo "=== configuring build-lint (compile-commands database) ==="
  cmake -B build-lint -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  echo "=== running clang-tidy ==="
  local failed=0
  while IFS= read -r file; do
    "$tidy" -p build-lint --quiet "$file" || failed=1
  done < <(find src -name '*.cc' | sort)
  if [[ "$failed" != 0 ]]; then
    echo "=== lint failed ===" >&2
    return 1
  fi
  echo "=== lint passed ==="
}

run_wthread() {
  local cxx
  cxx=$(command -v clang++ || true)
  if [[ -z "$cxx" ]]; then
    echo "=== wthread skipped: clang++ not installed (-Wthread-safety is Clang-only) ==="
    return 0
  fi
  echo "=== configuring build-wthread (clang++, -Wthread-safety -Werror=thread-safety) ==="
  # The thread-safety flags are added automatically for Clang by the
  # top-level CMakeLists; selecting clang++ is what arms them.
  cmake -B build-wthread -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_COMPILER="$cxx" >/dev/null
  echo "=== building build-wthread (any thread-safety warning is an error) ==="
  cmake --build build-wthread -j "$JOBS"
  echo "=== wthread negative tests (seeded violations must be caught) ==="
  ctest --test-dir build-wthread --output-on-failure \
    -R 'WthreadNegative|LockHierarchy'
  echo "=== wthread gate passed ==="
}

if [[ "$LINT" == 1 ]]; then
  run_lint
fi

if [[ "$WTHREAD" == 1 ]]; then
  run_wthread
fi

run_config() {
  local dir="$1" flags="$2" filter="$3"
  echo "=== configuring $dir ($flags) ==="
  cmake -B "$dir" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="$flags" \
    -DCMAKE_EXE_LINKER_FLAGS="$flags" >/dev/null
  echo "=== building $dir ==="
  cmake --build "$dir" -j "$JOBS"
  echo "=== testing $dir ==="
  if [[ -n "$filter" ]]; then
    ctest --test-dir "$dir" --output-on-failure -j "$JOBS" -R "$filter"
  else
    ctest --test-dir "$dir" --output-on-failure -j "$JOBS"
  fi
  if [[ "$BENCH_SMOKE" == 1 ]]; then
    echo "=== bench smoke ($dir): analysis engine under sanitizers ==="
    (cd "$dir" && ./bench/bench_analysis_scaling --smoke)
    echo "=== bench smoke ($dir): continuous collection under sanitizers ==="
    (cd "$dir" && ./bench/bench_continuous --smoke)
    echo "=== bench smoke ($dir): fleet shards + merge-on-read under sanitizers ==="
    (cd "$dir" && ./bench/bench_fleet_scaling --smoke)
    echo "=== bench smoke ($dir): Section 5.4 before/after gates under sanitizers ==="
    (cd "$dir" && ./bench/bench_table4_overhead_components --smoke)
    echo "=== bench smoke ($dir): wide-record memory sampling under sanitizers ==="
    (cd "$dir" && ./bench/bench_mem_sampling --smoke)
    echo "=== bench smoke ($dir): collection micro head-to-heads under sanitizers ==="
    (cd "$dir" && ./bench/bench_micro_collection \
        --benchmark_filter='Policy|Ingest' --benchmark_min_time=0.01 \
        --benchmark_out=BENCH_micro_collection.json --benchmark_out_format=json)
  fi
}

if [[ "$RUN_TSAN" == 1 ]]; then
  TSAN_FILTER=""
  if [[ "$FAST" == 1 ]]; then
    TSAN_FILTER="DriverConcurrency|MpDeterminism|PipelineIntegration|DcpiDriver|KernelSched|ParallelFor|Engine|Continuous|HashPolicy|DaemonIngest|IngestDb|Fleet|LockHierarchy|WthreadNegative|MemorySection|SimGolden|ProcessRelease|Session|PerfCounters|DoubleSampling|IssueHorizon|TruthOnRequest"
  fi
  run_config build-tsan "-fsanitize=thread -O1 -g -fno-omit-frame-pointer" "$TSAN_FILTER"
fi

if [[ "$RUN_ASAN" == 1 ]]; then
  ASAN_FILTER=""
  if [[ "$FAST" == 1 ]]; then
    ASAN_FILTER="ParallelFor|ProfileDbCrash|DeserializeAdversarial|MemorySection|AtomicWrite|Crc32|Fnv1a64|DbTest|BinaryIo|Engine|Continuous|HashPolicy|DaemonIngest|IngestDb|Fleet|LockHierarchy|WthreadNegative|CpuTiming|KernelSmoke|Cache|Tlb|WriteBuffer|Isa|SimGolden|ProcessRelease|Session|PerfCounters|DoubleSampling|IssueHorizon|TruthOnRequest"
  fi
  # -fno-sanitize-recover makes undefined behaviour fail the test that hits
  # it instead of only printing a report.
  run_config build-asan "-fsanitize=address,undefined -fno-sanitize-recover=undefined -O1 -g -fno-omit-frame-pointer" "$ASAN_FILTER"
fi

echo "=== all sanitizer configurations passed ==="
