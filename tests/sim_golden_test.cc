// Golden digests of everything the simulator produces.
//
// Each run below is reduced to one FNV-1a 64-bit digest over:
//   * ground truth: every per-instruction counter and every taken edge;
//   * per-CPU statistics: CpuStats, I-cache, D-cache, board cache, ITB,
//     DTB, write buffer and branch predictor;
//   * the SystemResult (minus publish_waits, which counts host-thread
//     backpressure and is the one host-timing-dependent field);
//   * every in-memory daemon profile, serialized;
//   * every file the database holds, as relative path plus bytes.
// The expected values were recorded from the simulator before its host-side
// fast paths (translation and page memos, text windows, precomputed issue
// facts, ground-truth memos) existed. Those fast paths must leave every
// simulated byte unchanged, so a change that moves a digest changed the
// simulated machine, not just its host speed. If a change means to alter
// simulated behaviour, re-record the digests and say why.

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "src/profiledb/database.h"
#include "src/workloads/workloads.h"
#include "tests/scratch_dir.h"

namespace dcpi {
namespace {

class Fnv1a64 {
 public:
  void Bytes(const void* data, size_t size) {
    const auto* p = static_cast<const uint8_t*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash_ ^= p[i];
      hash_ *= 0x100000001b3ull;
    }
  }
  void U64(uint64_t value) {
    uint8_t bytes[8];
    for (int i = 0; i < 8; ++i) bytes[i] = static_cast<uint8_t>(value >> (8 * i));
    Bytes(bytes, sizeof(bytes));
  }
  void Str(const std::string& s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

std::string Hex(uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, value);
  return buf;
}

void DigestGroundTruth(Kernel& kernel, Fnv1a64* h) {
  for (const ImageTruth& image : kernel.ground_truth().images()) {
    h->Str(image.image->name());
    h->U64(image.image->text_base());
    for (const InstructionTruth& t : image.instructions) {
      h->U64(t.exec_count);
      h->U64(t.head_cycles);
      for (uint64_t stall : t.stall_cycles) h->U64(stall);
      h->U64(t.imiss_events);
      h->U64(t.dmiss_events);
      h->U64(t.mispredict_events);
      h->U64(t.dtbmiss_events);
    }
    h->U64(image.edges.size());
    for (const auto& [edge, count] : image.edges) {
      h->U64(edge.first);
      h->U64(edge.second);
      h->U64(count);
    }
  }
}

void DigestCpus(Kernel& kernel, Fnv1a64* h) {
  for (uint32_t i = 0; i < kernel.num_cpus(); ++i) {
    const Cpu& cpu = kernel.cpu(i);
    const CpuStats& s = cpu.stats();
    for (uint64_t v : {s.instructions, s.issue_groups, s.loads, s.stores,
                       s.cond_branches, s.mispredicts, s.context_switches}) {
      h->U64(v);
    }
    const MemorySystem& m = cpu.memory();
    for (const Cache* cache : {&m.icache(), &m.dcache(), &m.board()}) {
      h->U64(cache->stats().hits);
      h->U64(cache->stats().misses);
    }
    for (const Tlb* tlb : {&m.itb(), &m.dtb()}) {
      h->U64(tlb->stats().hits);
      h->U64(tlb->stats().misses);
    }
    const WriteBufferStats& wb = m.write_buffer().stats();
    for (uint64_t v : {wb.stores, wb.merges, wb.overflow_stalls, wb.overflow_stall_cycles}) {
      h->U64(v);
    }
    h->U64(cpu.predictor().stats().cond_branches);
    h->U64(cpu.predictor().stats().mispredicts);
    h->U64(cpu.now());
  }
}

void DigestResult(const SystemResult& r, Fnv1a64* h) {
  for (uint64_t v : {r.elapsed_cycles, r.busy_cycles_with_daemon, r.instructions,
                     static_cast<uint64_t>(r.had_error)}) {
    h->U64(v);
  }
  const DriverCpuStats& d = r.driver_total;
  for (uint64_t v : {d.interrupts, d.hash_hits, d.hash_misses, d.handler_cycles,
                     d.hit_path_cycles, d.miss_path_cycles, d.wide_path_cycles,
                     d.ipi_flush_cycles, d.wide_records, d.overflow_buffer_flushes,
                     d.flush_requests_serviced}) {
    h->U64(v);
  }
  const DaemonStats& s = r.daemon;
  for (uint64_t v : {s.records_processed, s.samples_attributed, s.samples_unknown,
                     s.daemon_cycles, s.db_merges, s.db_write_retries, s.db_write_failures,
                     s.epoch_rolls, s.timed_flushes, s.ingest_groups, s.staging_drains,
                     s.db_bytes_written, s.wide_records}) {
    h->U64(v);
  }
  for (uint64_t samples : r.samples) h->U64(samples);
}

void DigestProfiles(const Daemon& daemon, Fnv1a64* h) {
  std::vector<const ImageProfile*> profiles = daemon.AllProfiles();
  std::sort(profiles.begin(), profiles.end(),
            [](const ImageProfile* a, const ImageProfile* b) {
              return std::make_pair(a->image_name(), a->event()) <
                     std::make_pair(b->image_name(), b->event());
            });
  h->U64(profiles.size());
  for (const ImageProfile* profile : profiles) {
    std::vector<uint8_t> bytes = SerializeProfile(*profile);
    h->U64(bytes.size());
    h->Bytes(bytes.data(), bytes.size());
  }
}

void DigestDatabase(const std::string& root, Fnv1a64* h) {
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(root)) {
    if (entry.is_regular_file()) files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  h->U64(files.size());
  for (const auto& path : files) {
    h->Str(std::filesystem::relative(path, root).string());
    std::ifstream in(path, std::ios::binary);
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    h->U64(bytes.size());
    h->Bytes(bytes.data(), bytes.size());
  }
}

SystemConfig GoldenConfig(uint32_t num_cpus, ProfilingMode mode, const std::string& db_root) {
  SystemConfig config;
  config.kernel.num_cpus = num_cpus;
  config.mode = mode;
  config.period_scale = 1.0 / 16;
  config.db_root = db_root;
  return config;
}

// Every run stops when each CPU's clock reaches this many cycles (the
// smaller workloads finish earlier), which keeps the whole file to a few
// seconds; the final flush still writes the database.
constexpr uint64_t kMaxCycles = 3'000'000;

// Runs `workload` and digests everything it produced.
uint64_t RunAndDigest(const Workload& workload, const SystemConfig& config) {
  System system(config);
  EXPECT_TRUE(workload.Instantiate(&system).ok()) << workload.name;
  SystemResult result = system.Run(kMaxCycles);
  EXPECT_FALSE(result.had_error) << workload.name;
  Fnv1a64 h;
  DigestGroundTruth(system.kernel(), &h);
  DigestCpus(system.kernel(), &h);
  DigestResult(result, &h);
  DigestProfiles(*system.daemon(), &h);
  DigestDatabase(config.db_root, &h);
  return h.value();
}

// The Table 2 suite at 2% of its default size, every workload on
// `num_cpus` CPUs (more than one: threaded collection), in the default
// CYCLES + IMISS mode.
void ExpectSuiteDigests(uint32_t num_cpus,
                        const std::vector<std::pair<std::string, uint64_t>>& expected) {
  ScratchDir scratch;
  WorkloadFactory factory(/*scale=*/0.02);
  std::vector<Workload> suite = factory.Table2Suite();
  ASSERT_EQ(suite.size(), expected.size());
  for (size_t i = 0; i < suite.size(); ++i) {
    ASSERT_EQ(suite[i].name, expected[i].first);
    SystemConfig config = GoldenConfig(num_cpus, ProfilingMode::kDefault,
                                       scratch.path() + "/" + suite[i].name);
    EXPECT_EQ(Hex(RunAndDigest(suite[i], config)), Hex(expected[i].second))
        << suite[i].name << " on " << num_cpus << " CPU(s)";
  }
}

TEST(SimGolden, Table2SuiteOneCpu) {
  ExpectSuiteDigests(1, {
                            {"specint_like", 0x1c87ab8096e13fe1ull},
                            {"specfp_like", 0x8b87b2947011dbcfull},
                            {"x11perf", 0x798d5c5ec197c278ull},
                            {"mccalpin_copy", 0xbcbf3a189b0f6d53ull},
                            {"gcc", 0xa3c4759449dd39f8ull},
                            {"altavista", 0x115412b1f07f91e1ull},
                            {"dss", 0xa038a90e4c2b2debull},
                            {"parallel_specfp", 0xe308339d50dc39d6ull},
                        });
}

TEST(SimGolden, Table2SuiteFourThreadedCpus) {
  ExpectSuiteDigests(4, {
                            {"specint_like", 0xcd931975e495ee79ull},
                            {"specfp_like", 0xc02540edbc3ab935ull},
                            {"x11perf", 0x8f7516166100e283ull},
                            {"mccalpin_copy", 0x91b82f021c2c503cull},
                            {"gcc", 0x3ca76ad8b090630cull},
                            {"altavista", 0x36afdb8192abb8a2ull},
                            {"dss", 0x70e22c89549ec88dull},
                            {"parallel_specfp", 0xfb81a9fc74881a67ull},
                        });
}

TEST(SimGolden, MuxModeTimesharing) {
  ScratchDir scratch;
  WorkloadFactory factory(/*scale=*/0.02);
  SystemConfig config = GoldenConfig(1, ProfilingMode::kMux, scratch.path() + "/db");
  EXPECT_EQ(Hex(RunAndDigest(factory.Timesharing(2), config)), Hex(0xc88e647df08ff56dull));
}

TEST(SimGolden, WideMemorySamplesOnTwoCpus) {
  ScratchDir scratch;
  WorkloadFactory factory(/*scale=*/0.02);
  SystemConfig config = GoldenConfig(2, ProfilingMode::kDefault, scratch.path() + "/db");
  config.mem_fraction = 0.25;
  EXPECT_EQ(Hex(RunAndDigest(factory.Timesharing(2), config)), Hex(0x1aae5168198b6d7eull));
}

}  // namespace
}  // namespace dcpi
