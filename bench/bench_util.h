// Shared helpers for the table/figure reproduction benchmarks.

#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <stdlib.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "src/tools/toolkit.h"
#include "src/workloads/workloads.h"

namespace dcpi {
namespace bench {

struct RunSpec {
  ProfilingMode mode = ProfilingMode::kBase;
  double period_scale = 1.0;  // 1.0 = the paper's 60K-64K CYCLES period
  // Analysis benches densify sampling to emulate long runs; they zero the
  // handler cost so the denser interrupts do not distort the timing they
  // are trying to measure (see SystemConfig::free_profiling).
  bool free_profiling = false;
  uint32_t num_cpus = 0;      // 0 = workload default
  uint64_t kernel_seed = 1;
  uint32_t rng_seed = 1;
  std::string db_root;
  // Driver configuration, so the before/after benches can pit the shipped
  // Section 5.4 hash table against the 1997 baseline
  // (HashTableConfig::Legacy()).
  DriverConfig driver;
  double mem_fraction = 0.0;  // fraction of samples taken as wide records
};

struct RunOutput {
  std::unique_ptr<System> system;
  SystemResult result;
};

inline RunOutput RunProfiled(const Workload& workload, const RunSpec& spec) {
  RunOutput output;
  SystemConfig config;
  config.kernel.num_cpus = spec.num_cpus != 0 ? spec.num_cpus
                                              : std::max(1u, workload.num_cpus);
  config.kernel.seed = spec.kernel_seed;
  config.mode = spec.mode;
  config.period_scale = spec.period_scale;
  config.free_profiling = spec.free_profiling;
  config.rng_seed = spec.rng_seed;
  config.db_root = spec.db_root;
  config.driver = spec.driver;
  config.mem_fraction = spec.mem_fraction;
  output.system = std::make_unique<System>(config);
  Status status = workload.Instantiate(output.system.get());
  if (!status.ok()) {
    std::fprintf(stderr, "FATAL: workload %s failed to instantiate: %s\n",
                 workload.name.c_str(), status.ToString().c_str());
    std::exit(1);
  }
  output.result = output.system->Run();
  if (output.result.had_error) {
    std::fprintf(stderr, "FATAL: workload %s had a process error\n",
                 workload.name.c_str());
    std::exit(1);
  }
  return output;
}

// A private output directory for one bench run: mkdtemp under $TMPDIR
// (default /tmp), removed with everything in it when it goes out of scope.
// The bench counterpart of tests/scratch_dir.h, so two builds running the
// benches at once never delete each other's files.
class BenchDir {
 public:
  BenchDir() {
    const char* tmp = std::getenv("TMPDIR");
    std::string pattern = (tmp != nullptr && *tmp != '\0') ? tmp : "/tmp";
    pattern += "/dcpi_bench_XXXXXX";
    std::vector<char> buf(pattern.begin(), pattern.end());
    buf.push_back('\0');
    if (mkdtemp(buf.data()) == nullptr) {
      std::perror(("mkdtemp " + pattern).c_str());
      std::exit(1);
    }
    path_ = buf.data();
  }
  ~BenchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  BenchDir(const BenchDir&) = delete;
  BenchDir& operator=(const BenchDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

inline void PrintHeader(const char* what, const char* paper_ref) {
  std::printf("==================================================================\n");
  std::printf("%s\n", what);
  std::printf("reproduces: %s\n", paper_ref);
  std::printf("==================================================================\n\n");
}

}  // namespace bench
}  // namespace dcpi

#endif  // BENCH_BENCH_UTIL_H_
