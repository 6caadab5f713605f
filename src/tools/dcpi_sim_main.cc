// dcpi_sim CLI: runs a named workload on the simulated machine with
// continuous profiling, and writes the profile database plus serialized
// images for the offline tools.
//
// Usage:
//   dcpi_sim [--continuous] [--epochs N] [--quanta Q] [--fleet N]
//            [--compact] <workload> <output_dir> [mode=default]
//            [scale=0.25] [cpus]
//
// Batch mode (the default) runs the workload to completion into one epoch
// and seals it on clean shutdown. --continuous reproduces the paper's
// always-on operation: the workload is re-instantiated and run for Q
// scheduler quanta per epoch (--quanta, default 400), then the epoch is
// sealed and rolled, N times (--epochs, default 3). Process exits between
// segments change the image map, so the daemon's map-change trigger and
// the periodic timed flush both exercise; the offline tools can read the
// sealed epochs (dcpiprof --all-epochs) while a longer run is still
// writing.
//
// --fleet N runs N independent instances of the whole pipeline (one
// simulated host each, distinct sampling seeds) concurrently, writing one
// database shard per host under <output_dir>/db/host_<i> — the layout the
// --fleet analysis tools and FleetView read. Images are identical across
// hosts and saved once. --compact additionally runs a background
// compaction thread that folds fleet-wide-sealed epochs into a merged
// single-host database at <output_dir>/db/merged while collection is still
// running, finishing the remainder after the last host exits.
//
// --mem-fraction F takes the given fraction of samples as ProfileMe-style
// wide memory records (data VA, latency, memory level, TLB bit), feeding
// the database's data-line axis that dcpimem reads. 0 (the default) is
// byte-identical to a run without memory sampling.
//
// Workloads: copy scale sum triad specfp specint gcc x11perf altavista dss
//            parallel_specfp timesharing pointer_chase branch_heavy
//            icache_stress imul_fdiv write_buffer false_sharing
// Modes: cycles default mux

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/isa/image_io.h"
#include "src/profiledb/fleet.h"
#include "src/support/parse.h"
#include "src/tools/toolkit.h"
#include "src/workloads/workloads.h"

namespace dcpi {
namespace {

Workload MakeWorkload(WorkloadFactory& factory, const std::string& name) {
  if (name == "copy") return factory.McCalpin(StreamKernel::kCopy);
  if (name == "scale") return factory.McCalpin(StreamKernel::kScale);
  if (name == "sum") return factory.McCalpin(StreamKernel::kSum);
  if (name == "triad") return factory.McCalpin(StreamKernel::kTriad);
  if (name == "specfp") return factory.SpecFpLike();
  if (name == "specint") return factory.SpecIntLike();
  if (name == "gcc") return factory.GccLike();
  if (name == "x11perf") return factory.X11PerfLike();
  if (name == "altavista") return factory.AltaVistaLike();
  if (name == "dss") return factory.DssLike();
  if (name == "parallel_specfp") return factory.ParallelSpecFp();
  if (name == "timesharing") return factory.Timesharing();
  if (name == "pointer_chase") return factory.PointerChase();
  if (name == "branch_heavy") return factory.BranchHeavy();
  if (name == "icache_stress") return factory.IcacheStress();
  if (name == "imul_fdiv") return factory.ImulFdivStress();
  if (name == "write_buffer") return factory.WriteBufferStress();
  if (name == "false_sharing") return factory.FalseSharing();
  std::fprintf(stderr, "unknown workload %s\n", name.c_str());
  std::exit(2);
}

int Usage() {
  std::fprintf(stderr,
               "usage: dcpi_sim [--continuous] [--epochs N] [--quanta Q] "
               "[--fleet N] [--compact] [--mem-fraction F] <workload> "
               "<output_dir> [mode] [scale] [cpus]\n");
  return 2;
}

// Strictly parsed positive double for the scale argument ("0.25x" and "-1"
// are usage errors, not silently truncated or negative workloads).
bool ParsePositiveDouble(const char* s, double* out) {
  if (*s == '\0') return false;
  char* end = nullptr;
  double value = std::strtod(s, &end);
  if (end == nullptr || *end != '\0' || !(value > 0)) return false;
  *out = value;
  return true;
}

struct RunParams {
  std::string workload_name;
  std::string out_dir;
  std::string db_root;
  std::string mode_name;
  double scale = 0.25;
  uint32_t cpus = 0;
  double mem_fraction = 0.0;  // fraction of samples taken as wide records
  bool continuous = false;
  uint32_t num_epochs = 3;
  uint64_t quanta_per_epoch = 400;
  uint32_t rng_seed = 1;
  bool save_images = false;  // one host of a fleet saves the shared set
};

struct RunOutcome {
  SystemResult result;
  bool failed = false;
  size_t epochs = 0;
  size_t sealed = 0;
};

// One full collection pipeline — a single simulated host. Fleet mode runs
// several of these concurrently; each touches only its own db_root, so
// hosts never contend on the database.
RunOutcome RunInstance(const RunParams& params) {
  RunOutcome outcome;
  WorkloadFactory factory(params.scale);
  Workload workload = MakeWorkload(factory, params.workload_name);
  SystemConfig config;
  config.kernel.num_cpus =
      params.cpus != 0 ? params.cpus : std::max(1u, workload.num_cpus);
  config.mode = params.mode_name == "cycles" ? ProfilingMode::kCycles
                : params.mode_name == "mux"  ? ProfilingMode::kMux
                                             : ProfilingMode::kDefault;
  config.period_scale = 1.0 / 16;  // dense sampling for offline analysis
  config.db_root = params.db_root;
  config.rng_seed = params.rng_seed;
  config.mem_fraction = params.mem_fraction;
  if (params.continuous) {
    // Continuous operation: flush the cumulative profiles at every drain
    // interval and let image-map changes (the per-epoch process exits)
    // schedule rolls at quiesce points.
    config.daemon_flush_interval = config.daemon_drain_interval;
    config.roll_on_map_change = true;
  }
  System system(config);

  const uint64_t epoch_cycles =
      params.quanta_per_epoch * config.kernel.quantum_cycles;
  const uint32_t segments = params.continuous ? params.num_epochs : 1;
  for (uint32_t segment = 0; segment < segments; ++segment) {
    // Each segment gets a fresh instantiation of the workload: new
    // processes, new image mappings — the exec/exit churn that delimits
    // epochs in the paper's continuous runs.
    Status status = workload.Instantiate(&system);
    if (!status.ok()) {
      std::fprintf(stderr, "instantiate failed: %s\n", status.ToString().c_str());
      outcome.failed = true;
      return outcome;
    }
    if (segment == 0 && params.save_images) {
      // The image set is known once the workload is mapped; save it up
      // front so the offline tools can read a continuous run mid-flight.
      std::filesystem::create_directories(params.out_dir + "/images");
      int image_index = 0;
      for (const ImageTruth& truth : system.kernel().ground_truth().images()) {
        std::string path = params.out_dir + "/images/image_" +
                           std::to_string(image_index++) + ".img";
        Status saved = SaveImage(*truth.image, path);
        if (!saved.ok()) {
          std::fprintf(stderr, "cannot save image: %s\n", saved.ToString().c_str());
          outcome.failed = true;
        }
      }
    }
    uint64_t cap = params.continuous
                       ? system.kernel().ElapsedCycles() + epoch_cycles
                       : ~0ull;
    outcome.result = system.Run(cap);
    if (outcome.result.had_error) break;
    if (params.continuous && segment + 1 < segments) {
      Status rolled = system.RollEpoch();
      if (!rolled.ok()) {
        std::fprintf(stderr, "epoch roll failed: %s\n", rolled.ToString().c_str());
        outcome.failed = true;
        return outcome;
      }
    }
  }
  // Seal the final epoch on clean shutdown, so every epoch of a finished
  // run is analyzable the same way (the tools default to sealed epochs).
  if (!outcome.result.had_error) {
    Status sealed = system.SealCurrentEpoch();
    if (!sealed.ok()) {
      std::fprintf(stderr, "seal failed: %s\n", sealed.ToString().c_str());
      outcome.failed = true;
      return outcome;
    }
  }
  if (outcome.result.had_error) outcome.failed = true;
  if (system.database() != nullptr) {
    outcome.epochs = system.database()->ListEpochs().size();
    outcome.sealed = system.database()->ListSealedEpochs().size();
  }
  return outcome;
}

// Epochs sealed on every host of the fleet — present everywhere, open
// nowhere. Stricter than FleetView::ListSealedEpochs (which accepts epochs
// a lagging host has not created yet): the mid-run compactor must not
// materialize and permanently seal an epoch a host is still going to
// write.
std::vector<uint32_t> SealedOnAllHosts(const FleetView& fleet) {
  std::vector<uint32_t> result;
  if (fleet.num_hosts() == 0) return result;
  for (uint32_t epoch : fleet.ListSealedEpochs()) {
    bool everywhere = true;
    for (size_t h = 0; h < fleet.num_hosts(); ++h) {
      if (!fleet.host(h).IsSealed(epoch)) {
        everywhere = false;
        break;
      }
    }
    if (everywhere) result.push_back(epoch);
  }
  return result;
}

}  // namespace
}  // namespace dcpi

int main(int argc, char** argv) {
  using namespace dcpi;
  RunParams params;
  uint32_t fleet_hosts = 0;  // 0: plain single-instance run
  bool compact = false;
  int arg = 1;
  while (arg < argc && argv[arg][0] == '-') {
    if (std::strcmp(argv[arg], "--continuous") == 0) {
      params.continuous = true;
    } else if (std::strcmp(argv[arg], "--compact") == 0) {
      compact = true;
    } else if (std::strcmp(argv[arg], "--epochs") == 0 && arg + 1 < argc) {
      if (!ParseUint32(argv[++arg], &params.num_epochs) || params.num_epochs < 1) {
        return Usage();
      }
    } else if (std::strcmp(argv[arg], "--quanta") == 0 && arg + 1 < argc) {
      uint32_t quanta = 0;
      if (!ParseUint32(argv[++arg], &quanta) || quanta == 0) return Usage();
      params.quanta_per_epoch = quanta;
    } else if (std::strcmp(argv[arg], "--fleet") == 0 && arg + 1 < argc) {
      if (!ParseUint32(argv[++arg], &fleet_hosts) || fleet_hosts < 1 ||
          fleet_hosts > 256) {
        return Usage();
      }
    } else if (std::strcmp(argv[arg], "--mem-fraction") == 0 && arg + 1 < argc) {
      // 0 is legal (and the default): byte-identical to a build without
      // memory sampling.
      char* end = nullptr;
      double value = std::strtod(argv[++arg], &end);
      if (argv[arg][0] == '\0' || end == nullptr || *end != '\0' || value < 0 ||
          value > 1) {
        return Usage();
      }
      params.mem_fraction = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[arg]);
      return 2;
    }
    ++arg;
  }
  if (argc - arg < 2) return Usage();
  params.workload_name = argv[arg];
  params.out_dir = argv[arg + 1];
  params.mode_name = argc - arg > 2 ? argv[arg + 2] : "default";
  if (argc - arg > 3 && !ParsePositiveDouble(argv[arg + 3], &params.scale)) {
    std::fprintf(stderr, "malformed scale '%s'\n", argv[arg + 3]);
    return Usage();
  }
  if (argc - arg > 4 && !ParseUint32(argv[arg + 4], &params.cpus)) {
    std::fprintf(stderr, "malformed cpu count '%s'\n", argv[arg + 4]);
    return Usage();
  }
  if (compact && fleet_hosts == 0) {
    std::fprintf(stderr, "--compact requires --fleet N\n");
    return Usage();
  }

  if (fleet_hosts == 0) {
    params.db_root = params.out_dir + "/db";
    params.save_images = true;
    RunOutcome outcome = RunInstance(params);
    std::printf("workload:        %s (%s mode%s)\n", params.workload_name.c_str(),
                params.mode_name.c_str(), params.continuous ? ", continuous" : "");
    std::printf("elapsed cycles:  %llu\n",
                static_cast<unsigned long long>(outcome.result.elapsed_cycles));
    std::printf("instructions:    %llu\n",
                static_cast<unsigned long long>(outcome.result.instructions));
    std::printf("cycles samples:  %llu\n",
                static_cast<unsigned long long>(
                    outcome.result.samples[static_cast<int>(EventType::kCycles)]));
    std::printf("epoch rolls:     %llu (%llu timed flush(es))\n",
                static_cast<unsigned long long>(outcome.result.daemon.epoch_rolls),
                static_cast<unsigned long long>(outcome.result.daemon.timed_flushes));
    std::printf("profile db:      %s (%zu epoch(s), %zu sealed)\n",
                params.db_root.c_str(), outcome.epochs, outcome.sealed);
    std::printf("images:          %s/images/\n", params.out_dir.c_str());
    return outcome.failed ? 1 : 0;
  }

  // Fleet mode: one full pipeline per host, concurrently. Hosts share the
  // workload and image set but sample with distinct seeds, so shards differ
  // the way real machines do while staying individually deterministic.
  const std::string fleet_root = params.out_dir + "/db";
  std::filesystem::create_directories(fleet_root);
  std::vector<RunParams> host_params(fleet_hosts, params);
  std::vector<RunOutcome> outcomes(fleet_hosts);
  for (uint32_t h = 0; h < fleet_hosts; ++h) {
    host_params[h].db_root = fleet_root + "/host_" + std::to_string(h);
    host_params[h].rng_seed = 1 + h;
    host_params[h].save_images = h == 0;
  }

  // Optional background compaction: fold epochs that every host has sealed
  // into <out>/db/merged while collection continues, then finish the tail.
  //
  // Concurrency invariants of the fleet run (no locks needed):
  //  * Each host thread writes only outcomes[h] and its own db shard
  //    (host_<h>/); shards are disjoint directories, outcomes are disjoint
  //    elements, and the main thread reads them only after join(), which
  //    is a full happens-before edge.
  //  * The compactor communicates with the host threads purely through
  //    the filesystem (sealed-epoch markers written via the atomic
  //    rename+CRC path), never through shared memory.
  //  * hosts_done is a release store after every join; the compactor's
  //    acquire load therefore observes all final seal markers before its
  //    last full compaction pass.
  std::atomic<bool> hosts_done{false};
  std::thread compactor;
  if (compact) {
    compactor = std::thread([&] {
      const std::string merged_root = fleet_root + "/merged";
      while (!hosts_done.load(std::memory_order_acquire)) {
        FleetView fleet(fleet_root);
        Status status =
            fleet.num_hosts() == fleet_hosts
                ? CompactFleet(fleet, merged_root, SealedOnAllHosts(fleet))
                : Status::Ok();  // shards still appearing
        if (!status.ok()) {
          std::fprintf(stderr, "background compaction: %s\n",
                       status.ToString().c_str());
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
      FleetView fleet(fleet_root);
      Status status = CompactFleet(fleet, merged_root, fleet.ListSealedEpochs());
      if (!status.ok()) {
        std::fprintf(stderr, "final compaction: %s\n", status.ToString().c_str());
      }
    });
  }

  std::vector<std::thread> hosts;
  hosts.reserve(fleet_hosts);
  for (uint32_t h = 0; h < fleet_hosts; ++h) {
    hosts.emplace_back([&, h] { outcomes[h] = RunInstance(host_params[h]); });
  }
  for (std::thread& t : hosts) t.join();
  hosts_done.store(true, std::memory_order_release);
  if (compactor.joinable()) compactor.join();

  bool failed = false;
  unsigned long long total_cycles_samples = 0;
  for (uint32_t h = 0; h < fleet_hosts; ++h) {
    failed = failed || outcomes[h].failed;
    total_cycles_samples +=
        outcomes[h].result.samples[static_cast<int>(EventType::kCycles)];
    std::printf("host_%u: %llu cycles sample(s), %zu epoch(s), %zu sealed%s\n", h,
                static_cast<unsigned long long>(
                    outcomes[h].result.samples[static_cast<int>(EventType::kCycles)]),
                outcomes[h].epochs, outcomes[h].sealed,
                outcomes[h].failed ? " [FAILED]" : "");
  }
  std::printf("workload:        %s (%s mode%s, fleet of %u)\n",
              params.workload_name.c_str(), params.mode_name.c_str(),
              params.continuous ? ", continuous" : "", fleet_hosts);
  std::printf("cycles samples:  %llu (all hosts)\n", total_cycles_samples);
  std::printf("fleet db:        %s (%u shard(s)%s)\n", fleet_root.c_str(),
              fleet_hosts, compact ? ", compacted to merged/" : "");
  std::printf("images:          %s/images/\n", params.out_dir.c_str());
  return failed ? 1 : 0;
}
