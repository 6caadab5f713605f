// Table 5: daemon space overhead (memory and profile-database disk usage).
//
// Paper: 512 KB of non-pageable kernel memory per CPU (hash table + two
// overflow buffers); daemon resident memory of a few MB growing with the
// number of active processes and images; on-disk profiles of a few hundred
// KB to a few MB, an order of magnitude smaller than the images, growing
// from cycles -> default -> mux as more event types are stored.
//
// Expected shape here: the same 512 KB/CPU kernel footprint, daemon memory
// largest for the many-process workloads, and disk usage (in bytes) larger
// in mux mode than in cycles or default mode for every workload. Default
// mode is not always larger than cycles mode (altavista 109 -> 104 bytes,
// dss 109 -> 106), so the paper's cycles -> default -> mux growth is
// printed, not gated.
//
// Gated: exits 1 (GATE FAILED on stderr) unless every row's kernel memory
// is exactly 524,288 bytes (512 KB) per CPU, and the CRC32 trailer costs
// less than 1% at 1,000, 10,000 and 100,000 distinct offsets.

// The v2/v3 columns compare the unchecksummed varint encoding against the
// current checksummed format: the CRC32 trailer costs 4 bytes per file,
// which must stay under 1% of the profile bytes. A v2 file is the v3 file
// without its trailer (exact for profiles without a memory axis, which
// these runs never collect), so v2 sizes are computed, not serialized.

#include <filesystem>

#include "bench/bench_util.h"
#include "src/profiledb/database.h"
#include "src/support/text_table.h"

using namespace dcpi;
using namespace dcpi::bench;

constexpr size_t kCrcTrailerBytes = 4;
constexpr uint64_t kPaperKernelBytesPerCpu = 512 * 1024;

int main() {
  PrintHeader("bench_table5_space_overhead: daemon memory and profile disk usage",
              "Table 5 (Section 5.3)");

  const ProfilingMode kModes[] = {ProfilingMode::kCycles, ProfilingMode::kDefault,
                                  ProfilingMode::kMux};
  const BenchDir dir;
  const std::string db_root = dir.path() + "/db";
  bool ok = true;

  for (ProfilingMode mode : kModes) {
    std::printf("--- configuration: %s ---\n", ProfilingModeName(mode));
    TextTable table;
    table.SetHeader({"workload", "kernel mem/cpu (KB)", "daemon mem (KB)",
                     "disk (bytes)", "profiled images", "v2 (KB)", "v3 (KB)",
                     "crc ovh%"});
    size_t num_workloads = WorkloadFactory(0.2).Table2Suite().size();
    for (size_t w = 0; w < num_workloads; ++w) {
      WorkloadFactory factory(/*scale=*/0.2, /*seed=*/1);
      Workload workload = factory.Table2Suite()[w];
      SystemConfig spec;
      spec.mode = mode;
      spec.period_scale = 1.0 / 4;  // denser sampling: short runs, real files
      spec.db_root = db_root;
      RunOutput out = RunProfiled(workload, spec);
      uint64_t kernel_bytes = out.system->driver()->KernelMemoryBytesPerCpu();
      ok = Gate(kernel_bytes == kPaperKernelBytesPerCpu,
                std::string("Table 5 ") + ProfilingModeName(mode) + " " + workload.name +
                    " kernel memory " + std::to_string(kernel_bytes) +
                    " bytes/CPU, paper 524288") &&
           ok;
      uint64_t daemon_kb = out.system->daemon()->MemoryUsageBytes() / 1024;
      uint64_t disk_bytes = out.system->database()->DiskUsageBytes();
      auto files = out.system->database()->ListProfiles(0);
      size_t num_files = files.ok() ? files.value().size() : 0;
      uint64_t v2_bytes = 0, v3_bytes = 0;
      for (const ImageProfile* profile : out.system->daemon()->AllProfiles()) {
        size_t v3 = SerializeProfile(*profile).size();
        v2_bytes += v3 - kCrcTrailerBytes;
        v3_bytes += v3;
      }
      double crc_overhead_pct =
          v2_bytes > 0
              ? 100.0 * static_cast<double>(v3_bytes - v2_bytes) / v2_bytes
              : 0.0;
      table.AddRow({workload.name, std::to_string(kernel_bytes / 1024),
                    std::to_string(daemon_kb), std::to_string(disk_bytes),
                    std::to_string(num_files),
                    TextTable::Fixed(v2_bytes / 1024.0, 1),
                    TextTable::Fixed(v3_bytes / 1024.0, 1),
                    TextTable::Percent(crc_overhead_pct, 2)});
      std::filesystem::remove_all(db_root);
    }
    table.Print();
    std::printf("\n");
  }
  std::printf("paper: 512 KB/CPU kernel memory; daemon 1.5-11 MB; disk 0.1-6 MB\n\n");

  // Format overhead at realistic profile sizes: the paper's on-disk
  // profiles are hundreds of KB to a few MB (thousands to hundreds of
  // thousands of distinct offsets), where the 4-byte CRC32 trailer is
  // far below 1%. The tiny short-run profiles above overstate it.
  std::printf("--- v2 vs v3 format overhead at representative profile sizes ---\n");
  TextTable fmt_table;
  fmt_table.SetHeader({"distinct offsets", "v1 fixed (KB)", "v2 varint (KB)",
                       "v3 +crc (KB)", "crc ovh%"});
  for (size_t entries : {1000, 10000, 100000}) {
    ImageProfile profile("hot_image", EventType::kCycles, 62000.0);
    for (size_t i = 0; i < entries; ++i) {
      profile.AddSamples(i * 4, 1 + (i * 37) % 500);
    }
    size_t v1 = SerializeProfileFixedWidth(profile).size();
    size_t v3 = SerializeProfile(profile).size();
    size_t v2 = v3 - kCrcTrailerBytes;
    double crc_overhead_pct = 100.0 * static_cast<double>(v3 - v2) / v2;
    fmt_table.AddRow({std::to_string(entries), TextTable::Fixed(v1 / 1024.0, 1),
                      TextTable::Fixed(v2 / 1024.0, 1),
                      TextTable::Fixed(v3 / 1024.0, 1),
                      TextTable::Percent(crc_overhead_pct, 3)});
    ok = Gate(crc_overhead_pct < 1.0,
              "Table 5 CRC trailer at " + std::to_string(entries) + " offsets costs " +
                  TextTable::Percent(crc_overhead_pct, 3) + ", need below 1%") &&
         ok;
  }
  fmt_table.Print();
  std::printf("v3 adds a 4-byte CRC32 trailer per profile file: overhead <1%%\n");
  if (!ok) return 1;
  std::printf("gate passed: 512 KB/CPU kernel memory in every row, CRC trailer "
              "below 1%%\n");
  return 0;
}
