// Memory sampling (ProfileMe-style wide records): cost and correctness of
// the --mem-fraction axis the v4 profile format carries.
//
// Three properties are gated (exit 1):
//   1. Off means off: at mem_fraction 0 the wide-sample path contributes
//      zero cycles and zero records, the database holds only pre-v4
//      format versions, and repeated runs write byte-identical trees —
//      running with memory sampling disabled is indistinguishable from a
//      build that never heard of wide records.
//   2. The overhead scales with the knob: raising the fraction never
//      lowers the wide-record count, and a nonzero fraction costs at
//      least as many elapsed cycles as zero (the paper's "overhead
//      proportional to sampling rate" contract, Section 5.2).
//   3. The axis is good for something: on the 4-CPU false-sharing
//      workload the collected data-line counters must flag the planted
//      shared line (>=2 CPUs, >=2 distinct 8-byte slots) and must NOT
//      flag the 64-byte-strided private control lines.
//
// The sweep numbers are written to BENCH_mem_sampling.json. --smoke
// shrinks the workloads and the sweep (CI-sized; all gates still apply).

#include <bit>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/profiledb/memory_profile.h"
#include "src/support/text_table.h"

using namespace dcpi;
using namespace dcpi::bench;

namespace {

struct SweepPoint {
  double fraction = 0;
  uint64_t elapsed_cycles = 0;
  uint64_t interrupts = 0;
  uint64_t wide_records = 0;      // driver-side bypass records
  uint64_t wide_path_cycles = 0;  // interrupt cycles on the wide path
  uint64_t daemon_wide = 0;       // records the daemon ingested
  uint64_t mem_lines = 0;         // distinct data lines across all profiles
};

SweepPoint RunPoint(double scale, double fraction, const std::string& db_root) {
  WorkloadFactory factory(scale, /*seed=*/1);
  SystemConfig spec;
  spec.mode = ProfilingMode::kDefault;
  spec.period_scale = 1.0 / 16;
  spec.mem_fraction = fraction;
  spec.db_root = db_root;
  RunOutput out = RunProfiled(factory.McCalpin(StreamKernel::kCopy), spec);
  SweepPoint point;
  point.fraction = fraction;
  point.elapsed_cycles = out.result.elapsed_cycles;
  point.interrupts = out.result.driver_total.interrupts;
  point.wide_records = out.result.driver_total.wide_records;
  point.wide_path_cycles = out.result.driver_total.wide_path_cycles;
  point.daemon_wide = out.result.daemon.wide_records;
  for (const ImageProfile* profile : out.system->daemon()->AllProfiles()) {
    point.mem_lines += profile->mem().num_lines();
  }
  return point;
}

// Every regular file under `root`, as relative path -> raw bytes.
std::map<std::string, std::vector<uint8_t>> ReadTree(const std::string& root) {
  std::map<std::string, std::vector<uint8_t>> files;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    std::string rel = std::filesystem::relative(entry.path(), root).string();
    std::ifstream in(entry.path(), std::ios::binary);
    files[rel] = std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                                      std::istreambuf_iterator<char>());
  }
  return files;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::fprintf(stderr, "usage: bench_mem_sampling [--smoke]\n");
      return 2;
    }
  }
  PrintHeader("bench_mem_sampling: ProfileMe-style wide-record cost and yield",
              "Section 5.2 overhead contract + the ProfileMe memory axis");

  const double scale = smoke ? 0.1 : 0.3;
  const BenchDir dir;
  const std::string& root = dir.path();

  // --- Gate 1: off means off ---
  SweepPoint zero_a = RunPoint(scale, 0.0, root + "/zero_a");
  SweepPoint zero_b = RunPoint(scale, 0.0, root + "/zero_b");
  std::map<std::string, std::vector<uint8_t>> tree_a = ReadTree(root + "/zero_a");
  bool zero_cost_ok = zero_a.wide_records == 0 && zero_a.wide_path_cycles == 0 &&
                      zero_a.daemon_wide == 0 && zero_a.mem_lines == 0 &&
                      zero_a.elapsed_cycles == zero_b.elapsed_cycles;
  bool zero_bytes_ok = !tree_a.empty() && tree_a == ReadTree(root + "/zero_b");
  bool zero_format_ok = true;
  for (const auto& [path, bytes] : tree_a) {
    if (path.find(".prof") == std::string::npos || bytes.size() < 5) continue;
    if (bytes[4] > 3) {
      zero_format_ok = false;
      std::fprintf(stderr, "fraction-0 file %s has version %u\n", path.c_str(),
                   bytes[4]);
    }
  }

  // --- Gate 2: the knob scales the cost ---
  std::vector<double> fractions = smoke ? std::vector<double>{0.25, 1.0}
                                        : std::vector<double>{0.05, 0.25, 1.0};
  std::vector<SweepPoint> sweep = {zero_a};
  for (double fraction : fractions) {
    sweep.push_back(RunPoint(scale, fraction, ""));
  }
  TextTable table;
  table.SetHeader({"fraction", "interrupts", "wide records", "wide-path kcy",
                   "daemon wide", "data lines", "elapsed Mcy"});
  for (const SweepPoint& point : sweep) {
    table.AddRow({TextTable::Fixed(point.fraction, 2),
                  std::to_string(point.interrupts),
                  std::to_string(point.wide_records),
                  TextTable::Fixed(point.wide_path_cycles / 1000.0, 0),
                  std::to_string(point.daemon_wide),
                  std::to_string(point.mem_lines),
                  TextTable::Fixed(point.elapsed_cycles / 1e6, 2)});
  }
  table.Print();
  bool sweep_ok = true;
  for (size_t i = 1; i < sweep.size(); ++i) {
    if (sweep[i].wide_records < sweep[i - 1].wide_records) sweep_ok = false;
    if (sweep[i].wide_records == 0) sweep_ok = false;
    if (sweep[i].wide_records != sweep[i].daemon_wide) sweep_ok = false;
    if (sweep[i].elapsed_cycles < sweep[0].elapsed_cycles) sweep_ok = false;
  }

  // --- Gate 3: the axis detects the planted false sharing ---
  WorkloadFactory fs_factory(smoke ? 0.25 : 0.5, /*seed=*/1);
  SystemConfig fs_spec;
  fs_spec.mode = ProfilingMode::kDefault;
  fs_spec.period_scale = 1.0 / 16;
  fs_spec.mem_fraction = 0.25;
  RunOutput fs = RunProfiled(fs_factory.FalseSharing(), fs_spec);
  uint64_t suspect_lines = 0, private_lines = 0, flagged_private = 0;
  for (const ImageProfile* profile : fs.system->daemon()->AllProfiles()) {
    for (const auto& [line_va, counters] : profile->mem().lines()) {
      bool suspect =
          std::popcount(counters.cpu_mask) >= 2 &&
          std::popcount(static_cast<unsigned>(counters.offset_mask)) >= 2;
      if (suspect) ++suspect_lines;
      if (std::popcount(counters.cpu_mask) == 1) {
        ++private_lines;
        if (suspect) ++flagged_private;
      }
    }
  }
  bool sharing_ok = suspect_lines >= 1 && private_lines >= 1 && flagged_private == 0;
  std::printf("\nfalse-sharing workload: %llu suspect line(s), %llu private "
              "line(s), %llu wrongly flagged\n",
              static_cast<unsigned long long>(suspect_lines),
              static_cast<unsigned long long>(private_lines),
              static_cast<unsigned long long>(flagged_private));

  char json[1024];
  std::snprintf(json, sizeof(json),
                "{\n"
                "  \"bench\": \"mem_sampling\",\n"
                "  \"smoke\": %s,\n"
                "  \"fraction0\": {\"wide_records\": %llu, \"wide_path_cycles\": %llu,\n"
                "                \"elapsed_cycles\": %llu},\n"
                "  \"fraction_full\": {\"wide_records\": %llu, \"wide_path_cycles\": %llu,\n"
                "                    \"elapsed_cycles\": %llu, \"data_lines\": %llu},\n"
                "  \"false_sharing\": {\"suspects\": %llu, \"private\": %llu},\n"
                "  \"gate_fraction0_cost_neutral\": %s,\n"
                "  \"gate_fraction0_byte_identical\": %s,\n"
                "  \"gate_fraction0_pre_v4_format\": %s,\n"
                "  \"gate_sweep_monotone\": %s,\n"
                "  \"gate_false_sharing_detected\": %s\n"
                "}\n",
                smoke ? "true" : "false",
                static_cast<unsigned long long>(zero_a.wide_records),
                static_cast<unsigned long long>(zero_a.wide_path_cycles),
                static_cast<unsigned long long>(zero_a.elapsed_cycles),
                static_cast<unsigned long long>(sweep.back().wide_records),
                static_cast<unsigned long long>(sweep.back().wide_path_cycles),
                static_cast<unsigned long long>(sweep.back().elapsed_cycles),
                static_cast<unsigned long long>(sweep.back().mem_lines),
                static_cast<unsigned long long>(suspect_lines),
                static_cast<unsigned long long>(private_lines),
                zero_cost_ok ? "true" : "false", zero_bytes_ok ? "true" : "false",
                zero_format_ok ? "true" : "false", sweep_ok ? "true" : "false",
                sharing_ok ? "true" : "false");
  std::ofstream("BENCH_mem_sampling.json") << json;
  std::printf("wrote BENCH_mem_sampling.json\n");

  int failed = 0;
  if (!zero_cost_ok) {
    std::fprintf(stderr, "GATE FAILED: mem_fraction 0 is not cost-neutral\n");
    failed = 1;
  }
  if (!zero_bytes_ok) {
    std::fprintf(stderr,
                 "GATE FAILED: fraction-0 runs wrote differing databases\n");
    failed = 1;
  }
  if (!zero_format_ok) {
    std::fprintf(stderr,
                 "GATE FAILED: fraction-0 database contains v4 profiles\n");
    failed = 1;
  }
  if (!sweep_ok) {
    std::fprintf(stderr,
                 "GATE FAILED: wide-record counts not monotone in the "
                 "fraction (or lost between driver and daemon)\n");
    failed = 1;
  }
  if (!sharing_ok) {
    std::fprintf(stderr,
                 "GATE FAILED: false-sharing line not detected (or a "
                 "private line wrongly flagged)\n");
    failed = 1;
  }
  return failed;
}
