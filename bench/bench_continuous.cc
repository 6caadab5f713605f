// Continuous-operation overhead: what an always-on profiling session pays
// over batch collection, and what an epoch roll costs when the image map
// changes.
//
// The paper's daemon runs indefinitely (Section 4): profiles flush
// periodically and epochs seal whenever the load map changes, so the
// offline tools can read a growing database mid-run. Both mechanisms do
// host-side work (profile snapshots, atomic renames, epoch bookkeeping)
// that batch collection skips; this bench measures them directly.
//
// Two measurements over the same instruction stream:
//   - roll latency: wall-clock of System::RollEpoch() (driver drain, flush
//     of every dirty profile, seal marker, epoch advance, count reset),
//     reported per roll across `segments - 1` rolls.
//   - steady-state overhead: wall-clock of the continuous run (periodic
//     timed flushes + one roll per segment) vs a batch run with identical
//     segment boundaries and a single shutdown flush.
//
// Gate (skipped under --smoke): continuous <= 2x batch wall-clock. The
// simulated instruction streams are identical by construction, so the
// ratio isolates the host-side flush/seal cost.
//
// Emits machine-readable BENCH_continuous.json in the working directory.
// --smoke shrinks the run to seconds-scale (CI / sanitizer jobs):
// correctness checks stay, the perf gate is skipped.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/workloads/session.h"
#include "src/workloads/workloads.h"

using namespace dcpi;

namespace {

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

struct ContinuousRun {
  double wall_ms = 0;
  SessionResult session;
};

// One session over `segments` fresh instantiations of the workload. The
// continuous one flushes periodically and rolls (timed) between segments.
ContinuousRun Collect(const Workload& workload, const std::string& db_root,
                      uint32_t segments, bool continuous) {
  SystemConfig config;
  config.kernel.num_cpus = 1;
  config.mode = ProfilingMode::kCycles;
  config.period_scale = 1.0 / 16;
  config.db_root = db_root;
  if (continuous) {
    config.daemon_flush_interval = config.daemon_drain_interval / 4;
  }
  SessionPlan plan;
  plan.segments = segments;
  plan.roll_between_segments = continuous;
  System system(config);

  ContinuousRun run;
  auto start = std::chrono::steady_clock::now();
  run.session = RunSession(&system, workload, plan);
  run.wall_ms = MsSince(start);
  if (!run.session.status.ok()) {
    std::fprintf(stderr, "FATAL: %s\n", run.session.status.ToString().c_str());
    std::exit(1);
  }
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::fprintf(stderr, "usage: bench_continuous [--smoke]\n");
      return 2;
    }
  }

  const bench::BenchDir dir;
  const std::string& root = dir.path();
  const uint32_t segments = smoke ? 3 : 8;
  WorkloadFactory factory(/*scale=*/smoke ? 0.25 : 1.0);
  Workload workload = factory.SpecIntLike();

  ContinuousRun batch = Collect(workload, root + "/batch", segments, /*continuous=*/false);
  ContinuousRun cont = Collect(workload, root + "/cont", segments, /*continuous=*/true);
  const std::vector<double>& roll_ms = cont.session.roll_ms;
  const uint64_t samples =
      cont.session.result.samples[static_cast<int>(EventType::kCycles)];

  // Identical simulations: continuous collection must not change what was
  // collected, only when it reached disk.
  const uint64_t batch_samples =
      batch.session.result.samples[static_cast<int>(EventType::kCycles)];
  if (samples != batch_samples) {
    std::fprintf(stderr, "FATAL: sample totals diverged (%llu vs %llu)\n",
                 static_cast<unsigned long long>(samples),
                 static_cast<unsigned long long>(batch_samples));
    return 1;
  }
  if (cont.session.sealed != segments || batch.session.sealed != 1) {
    std::fprintf(stderr, "FATAL: unexpected epoch layout (%zu vs %zu)\n",
                 cont.session.sealed, batch.session.sealed);
    return 1;
  }

  double roll_mean = 0, roll_max = 0;
  for (double ms : roll_ms) {
    roll_mean += ms;
    if (ms > roll_max) roll_max = ms;
  }
  if (!roll_ms.empty()) roll_mean /= static_cast<double>(roll_ms.size());
  const double overhead = batch.wall_ms > 0 ? cont.wall_ms / batch.wall_ms : 0;

  std::printf("continuous collection vs batch (%u segments, %zu rolls)\n",
              segments, roll_ms.size());
  std::printf("  batch wall:       %8.1f ms (1 sealed epoch)\n", batch.wall_ms);
  std::printf("  continuous wall:  %8.1f ms (%zu sealed epochs)\n",
              cont.wall_ms, cont.session.sealed);
  std::printf("  steady-state overhead: %.2fx\n", overhead);
  std::printf("  epoch roll latency: mean %.3f ms, max %.3f ms\n", roll_mean,
              roll_max);

  bool ok = true;
  if (smoke) {
    std::printf("overhead gate skipped: --smoke\n");
  } else if (overhead > 2.0) {
    std::printf("FAIL: continuous overhead %.2fx exceeds 2x gate\n", overhead);
    ok = false;
  } else {
    std::printf("PASS: continuous overhead %.2fx within 2x gate\n", overhead);
  }

  std::ofstream json("BENCH_continuous.json");
  json << "{\n"
       << "  \"bench\": \"continuous\",\n"
       << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
       << "  \"segments\": " << segments << ",\n"
       << "  \"samples\": " << samples << ",\n"
       << "  \"batch_wall_ms\": " << batch.wall_ms << ",\n"
       << "  \"continuous_wall_ms\": " << cont.wall_ms << ",\n"
       << "  \"steady_state_overhead\": " << overhead << ",\n"
       << "  \"epoch_rolls\": " << roll_ms.size() << ",\n"
       << "  \"roll_latency_mean_ms\": " << roll_mean << ",\n"
       << "  \"roll_latency_max_ms\": " << roll_max << ",\n"
       << "  \"sealed_epochs\": " << cont.session.sealed << ",\n"
       << "  \"gate_passed\": " << (ok ? "true" : "false") << "\n"
       << "}\n";
  return ok ? 0 : 1;
}
