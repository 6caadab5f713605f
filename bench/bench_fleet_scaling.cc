// Fleet-scale collection and analysis: aggregate ingest throughput and
// whole-fleet analysis wall-time as the number of simulated hosts grows.
//
// A fleet run is N independent collection pipelines (one simulated host
// each, distinct sampling seeds) writing one database shard apiece under
// <root>/host_<i> — the layout FleetView and the --fleet tools read. This
// bench runs N in {1, 4, 8} (smoke: {1, 2}) concurrent host threads and
// measures:
//   - aggregate ingest: serialized profile bytes the daemons flushed
//     (DaemonStats::db_bytes_written, which counts re-flushes the way a
//     real ingest pipeline would) summed over hosts, divided by the
//     collection wall-clock — the profile traffic rate the fleet
//     sustains. Absolute numbers are small: compact profile databases
//     are the point (Section 8's ~10 MB/day/host budget).
//   - analysis wall-time: AnalyzeDatabase over every shard's sealed
//     epochs, cold (empty result caches) and warm (second pass over the
//     same epochs). The warm pass must be pure cache hits: per-epoch
//     caches make re-analyzing a fleet pay only for epochs that are new
//     since the last pass.
//
// Gate (always on — it is a correctness property, not a perf threshold):
// the warm pass has cache_hits > 0 and cache_misses == 0 on every shard,
// and every shard sealed the expected number of epochs, each with
// analyzed procedures.
//
// Emits machine-readable BENCH_fleet.json in the working directory.
// --smoke shrinks the run to seconds-scale (CI / sanitizer jobs).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/analysis/engine.h"
#include "src/profiledb/fleet.h"
#include "src/workloads/session.h"
#include "src/workloads/workloads.h"

using namespace dcpi;

namespace {

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

struct FleetPoint {
  uint32_t hosts = 0;
  double collect_wall_ms = 0;
  uint64_t total_bytes = 0;
  double ingest_bytes_s = 0;
  double analysis_cold_ms = 0;
  double analysis_warm_ms = 0;
  uint64_t warm_hits = 0;
  uint64_t warm_misses = 0;
  bool gate_ok = false;
};

// Collects `segments` sealed epochs per host on `hosts` concurrent host
// threads, then analyzes every shard cold and warm.
FleetPoint MeasureFleet(uint32_t hosts, uint32_t segments, const Workload& workload,
                        const std::string& root, const std::string& images_dir) {
  std::filesystem::remove_all(root);
  SystemConfig system_config;
  system_config.kernel.num_cpus = 1;
  system_config.mode = ProfilingMode::kCycles;
  system_config.period_scale = 1.0 / 16;
  system_config.db_root = root;
  system_config.daemon_flush_interval = system_config.daemon_drain_interval / 4;
  SessionPlan plan;
  plan.segments = segments;
  plan.roll_between_segments = true;
  plan.images_dir = images_dir;

  auto collect_start = std::chrono::steady_clock::now();
  FleetResult fleet_run = RunFleet(system_config, workload, plan, hosts, /*compact=*/false);
  FleetPoint result;
  result.hosts = hosts;
  result.collect_wall_ms = MsSince(collect_start);
  bool ok = true;
  for (const SessionResult& host : fleet_run.hosts) {
    ok = ok && host.status.ok();
    result.total_bytes += host.result.daemon.db_bytes_written;
  }
  result.ingest_bytes_s =
      result.collect_wall_ms > 0
          ? static_cast<double>(result.total_bytes) /
                (result.collect_wall_ms / 1000.0)
          : 0;

  // Host 0 saved the image set; every shard is analyzed against it, as
  // the --fleet tools read it.
  std::vector<std::string> image_paths;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(images_dir, ec)) {
    image_paths.push_back(entry.path().string());
  }
  std::sort(image_paths.begin(), image_paths.end());
  Result<std::vector<std::shared_ptr<ExecutableImage>>> loaded =
      LoadImageSet(image_paths, /*jobs=*/0);
  ok = ok && loaded.ok();
  std::vector<std::shared_ptr<const ExecutableImage>> images;
  if (loaded.ok()) images.assign(loaded.value().begin(), loaded.value().end());

  // Analysis: every shard, cold caches then warm. The fleet view opens the
  // shards read-only the way the --fleet tools do.
  FleetView fleet(root);
  ok = ok && fleet.num_hosts() == hosts;
  AnalysisConfig config;
  for (int pass = 0; pass < 2; ++pass) {
    uint64_t hits = 0, misses = 0;
    auto pass_start = std::chrono::steady_clock::now();
    for (size_t h = 0; h < fleet.num_hosts(); ++h) {
      const ProfileDatabase& shard = fleet.host(h);
      DatabaseAnalysisOptions options;
      options.epochs = shard.ListSealedEpochs();
      ok = ok && options.epochs.size() == segments;
      AnalysisEngine engine;
      DatabaseAnalysis analysis = engine.AnalyzeDatabase(shard, images, config, options);
      hits += analysis.cache_hits;
      misses += analysis.cache_misses;
      ok = ok && analysis.per_epoch.size() == segments;
      for (const EpochAnalysisResult& epoch : analysis.per_epoch) {
        ok = ok && !epoch.analysis.procedures.empty();
      }
    }
    double pass_ms = MsSince(pass_start);
    if (pass == 0) {
      result.analysis_cold_ms = pass_ms;
    } else {
      result.analysis_warm_ms = pass_ms;
      result.warm_hits = hits;
      result.warm_misses = misses;
    }
  }
  // The warm pass must be served entirely from the per-epoch caches.
  result.gate_ok = ok && result.warm_hits > 0 && result.warm_misses == 0;

  std::filesystem::remove_all(root);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::fprintf(stderr, "usage: bench_fleet_scaling [--smoke]\n");
      return 2;
    }
  }

  const bench::BenchDir dir;
  const std::string root = dir.path() + "/fleet";
  const std::string images_dir = dir.path() + "/images";
  const uint32_t segments = smoke ? 2 : 3;
  const std::vector<uint32_t> fleet_sizes = smoke ? std::vector<uint32_t>{1, 2}
                                                  : std::vector<uint32_t>{1, 4, 8};
  WorkloadFactory factory(/*scale=*/smoke ? 0.25 : 0.5);
  Workload workload = factory.SpecIntLike();

  std::vector<FleetPoint> results;
  bool ok = true;
  std::printf("fleet scaling (%u sealed epoch(s) per host)\n", segments);
  for (uint32_t hosts : fleet_sizes) {
    FleetPoint r = MeasureFleet(hosts, segments, workload, root, images_dir);
    ok = ok && r.gate_ok;
    std::printf(
        "  N=%u: ingest %7.2f KiB/s (%llu bytes in %7.1f ms), analysis cold "
        "%7.1f ms, warm %7.1f ms (%llu hit(s), %llu miss(es)) %s\n",
        r.hosts, r.ingest_bytes_s / 1024.0,
        static_cast<unsigned long long>(r.total_bytes), r.collect_wall_ms,
        r.analysis_cold_ms, r.analysis_warm_ms,
        static_cast<unsigned long long>(r.warm_hits),
        static_cast<unsigned long long>(r.warm_misses),
        r.gate_ok ? "ok" : "FAIL");
    results.push_back(r);
  }
  std::printf("%s: warm analysis passes were pure cache hits on every shard\n",
              ok ? "PASS" : "FAIL");

  std::ofstream json("BENCH_fleet.json");
  json << "{\n"
       << "  \"bench\": \"fleet_scaling\",\n"
       << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
       << "  \"segments_per_host\": " << segments << ",\n"
       << "  \"fleets\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const FleetPoint& r = results[i];
    json << "    {\"hosts\": " << r.hosts
         << ", \"ingest_bytes_s\": " << r.ingest_bytes_s
         << ", \"db_bytes_written\": " << r.total_bytes
         << ", \"collect_wall_ms\": " << r.collect_wall_ms
         << ", \"analysis_cold_ms\": " << r.analysis_cold_ms
         << ", \"analysis_warm_ms\": " << r.analysis_warm_ms
         << ", \"warm_cache_hits\": " << r.warm_hits
         << ", \"warm_cache_misses\": " << r.warm_misses
         << ", \"gate_ok\": " << (r.gate_ok ? "true" : "false") << "}"
         << (i + 1 < results.size() ? "," : "") << "\n";
  }
  json << "  ],\n"
       << "  \"gate_passed\": " << (ok ? "true" : "false") << "\n"
       << "}\n";
  return ok ? 0 : 1;
}
