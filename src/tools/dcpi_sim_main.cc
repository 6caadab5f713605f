// dcpi_sim CLI: runs a named workload on the simulated machine with
// continuous profiling, and writes the profile database plus serialized
// images for the offline tools. The collection is one session
// (RunSession, or RunFleet for --fleet, in src/workloads/session.h); this
// file parses the flags into a SystemConfig and a SessionPlan, names the
// workload, and prints the summary.
//
// Usage:
//   dcpi_sim [--continuous] [--epochs N] [--quanta Q] [--fleet N]
//            [--compact] [--mem-fraction F] <workload> <output_dir>
//            [mode=default] [scale=0.25] [cpus]
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
// Numbers are parsed strictly (src/support/parse.h): a malformed,
// non-finite or out-of-range value exits 2 with usage, and so does a
// scale that takes a workload's iteration count past kMaxLiValue.
//
// Workloads: copy scale sum triad specfp specint gcc x11perf altavista dss
//            parallel_specfp timesharing pointer_chase branch_heavy
//            icache_stress imul_fdiv write_buffer false_sharing
// Modes: cycles default mux

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/profiledb/fleet.h"
#include "src/support/parse.h"
#include "src/workloads/session.h"
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

}  // namespace
}  // namespace dcpi

int main(int argc, char** argv) {
  using namespace dcpi;
  bool continuous = false;
  uint32_t num_epochs = 3;
  uint32_t quanta_per_epoch = 400;
  uint32_t fleet_hosts = 0;  // 0: plain single-instance run
  bool compact = false;
  double mem_fraction = 0.0;  // fraction of samples taken as wide records
  int arg = 1;
  while (arg < argc && argv[arg][0] == '-') {
    if (std::strcmp(argv[arg], "--continuous") == 0) {
      continuous = true;
    } else if (std::strcmp(argv[arg], "--compact") == 0) {
      compact = true;
    } else if (std::strcmp(argv[arg], "--epochs") == 0 && arg + 1 < argc) {
      if (!ParseUint32(argv[++arg], &num_epochs) || num_epochs < 1) return Usage();
    } else if (std::strcmp(argv[arg], "--quanta") == 0 && arg + 1 < argc) {
      if (!ParseUint32(argv[++arg], &quanta_per_epoch) || quanta_per_epoch == 0) {
        return Usage();
      }
    } else if (std::strcmp(argv[arg], "--fleet") == 0 && arg + 1 < argc) {
      if (!ParseUint32(argv[++arg], &fleet_hosts) || fleet_hosts < 1 ||
          fleet_hosts > 256) {
        return Usage();
      }
    } else if (std::strcmp(argv[arg], "--mem-fraction") == 0 && arg + 1 < argc) {
      // 0 is legal (and the default): byte-identical to a build without
      // memory sampling.
      if (!ParseDouble(argv[++arg], &mem_fraction) || mem_fraction < 0 ||
          mem_fraction > 1) {
        return Usage();
      }
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[arg]);
      return 2;
    }
    ++arg;
  }
  if (argc - arg < 2) return Usage();
  const std::string workload_name = argv[arg];
  const std::string out_dir = argv[arg + 1];
  const std::string mode_name = argc - arg > 2 ? argv[arg + 2] : "default";
  double scale = 0.25;
  if (argc - arg > 3 && (!ParseDouble(argv[arg + 3], &scale) || scale <= 0)) {
    std::fprintf(stderr, "malformed scale '%s'\n", argv[arg + 3]);
    return Usage();
  }
  uint32_t cpus = 0;
  if (argc - arg > 4 && !ParseUint32(argv[arg + 4], &cpus)) {
    std::fprintf(stderr, "malformed cpu count '%s'\n", argv[arg + 4]);
    return Usage();
  }
  if (compact && fleet_hosts == 0) {
    std::fprintf(stderr, "--compact requires --fleet N\n");
    return Usage();
  }

  WorkloadFactory factory(scale);
  const Workload workload = MakeWorkload(factory, workload_name);
  if (!factory.status().ok()) {
    std::fprintf(stderr, "%s\n", factory.status().ToString().c_str());
    return Usage();
  }
  SystemConfig config;
  config.kernel.num_cpus = cpus != 0 ? cpus : std::max(1u, workload.num_cpus);
  config.mode = mode_name == "cycles" ? ProfilingMode::kCycles
                : mode_name == "mux"  ? ProfilingMode::kMux
                                      : ProfilingMode::kDefault;
  config.period_scale = 1.0 / 16;  // dense sampling for offline analysis
  config.db_root = out_dir + "/db";
  config.mem_fraction = mem_fraction;
  SessionPlan plan;
  plan.images_dir = out_dir + "/images";
  if (continuous) {
    // Continuous operation: flush the cumulative profiles at every drain
    // interval, let image-map changes (the per-epoch process exits)
    // schedule rolls at quiesce points, and roll between segments.
    config.daemon_flush_interval = config.daemon_drain_interval;
    config.roll_on_map_change = true;
    plan.segments = num_epochs;
    plan.segment_cycles = uint64_t{quanta_per_epoch} * config.kernel.quantum_cycles;
    plan.roll_between_segments = true;
  }

  if (fleet_hosts == 0) {
    System system(config);
    SessionResult session = RunSession(&system, workload, plan);
    if (!session.status.ok()) {
      std::fprintf(stderr, "dcpi_sim: %s\n", session.status.ToString().c_str());
    }
    std::printf("workload:        %s (%s mode%s)\n", workload_name.c_str(),
                mode_name.c_str(), continuous ? ", continuous" : "");
    std::printf("elapsed cycles:  %llu\n",
                static_cast<unsigned long long>(session.result.elapsed_cycles));
    std::printf("instructions:    %llu\n",
                static_cast<unsigned long long>(session.result.instructions));
    std::printf("cycles samples:  %llu\n",
                static_cast<unsigned long long>(
                    session.result.samples[static_cast<int>(EventType::kCycles)]));
    std::printf("epoch rolls:     %llu (%llu timed flush(es))\n",
                static_cast<unsigned long long>(session.result.daemon.epoch_rolls),
                static_cast<unsigned long long>(session.result.daemon.timed_flushes));
    std::printf("profile db:      %s (%zu epoch(s), %zu sealed)\n",
                config.db_root.c_str(), session.epochs, session.sealed);
    std::printf("images:          %s/images/\n", out_dir.c_str());
    return session.status.ok() ? 0 : 1;
  }

  // Fleet mode: one full pipeline per host, concurrently, each on its own
  // shard of the fleet root.
  FleetResult fleet = RunFleet(config, workload, plan, fleet_hosts, compact);
  bool failed = !fleet.compaction.ok();
  if (failed) {
    std::fprintf(stderr, "final compaction: %s\n", fleet.compaction.ToString().c_str());
  }
  unsigned long long total_cycles_samples = 0;
  for (uint32_t h = 0; h < fleet_hosts; ++h) {
    const SessionResult& host = fleet.hosts[h];
    const unsigned long long samples =
        host.result.samples[static_cast<int>(EventType::kCycles)];
    if (!host.status.ok()) {
      failed = true;
      std::fprintf(stderr, "%s: %s\n", FleetHostDir(h).c_str(),
                   host.status.ToString().c_str());
    }
    total_cycles_samples += samples;
    std::printf("%s: %llu cycles sample(s), %zu epoch(s), %zu sealed%s\n",
                FleetHostDir(h).c_str(), samples, host.epochs, host.sealed,
                host.status.ok() ? "" : " [FAILED]");
  }
  std::printf("workload:        %s (%s mode%s, fleet of %u)\n", workload_name.c_str(),
              mode_name.c_str(), continuous ? ", continuous" : "", fleet_hosts);
  std::printf("cycles samples:  %llu (all hosts)\n", total_cycles_samples);
  std::printf("fleet db:        %s (%u shard(s)%s)\n", config.db_root.c_str(),
              fleet_hosts, compact ? ", compacted to merged/" : "");
  std::printf("images:          %s/images/\n", out_dir.c_str());
  return failed ? 1 : 0;
}
