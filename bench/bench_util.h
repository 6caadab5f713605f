// Shared helpers for the table/figure reproduction benchmarks.

#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <stdlib.h>

#include <algorithm>
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

struct RunOutput {
  std::unique_ptr<System> system;
  SystemResult result;
};

// Runs the workload to completion on a System built from `config`, sized
// to the workload's CPU count; exits the bench on any failure.
inline RunOutput RunProfiled(const Workload& workload, SystemConfig config) {
  RunOutput output;
  config.kernel.num_cpus = std::max(1u, workload.num_cpus);
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

// One shape check of a gated bench: prints "GATE FAILED: <row>" on stderr
// when `ok` is false, and returns `ok`, so a bench can run every check and
// exit 1 if any missed.
inline bool Gate(bool ok, const std::string& row) {
  if (!ok) std::fprintf(stderr, "GATE FAILED: %s\n", row.c_str());
  return ok;
}

inline void PrintHeader(const char* what, const char* paper_ref) {
  std::printf("==================================================================\n");
  std::printf("%s\n", what);
  std::printf("reproduces: %s\n", paper_ref);
  std::printf("==================================================================\n\n");
}

}  // namespace bench
}  // namespace dcpi

#endif  // BENCH_BENCH_UTIL_H_
