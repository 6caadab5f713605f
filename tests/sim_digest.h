// FNV-1a digests of what a simulated run produces, one function per part,
// so a test can say which part of two runs differs:
//   * ground truth: every per-instruction counter and every taken edge;
//   * per-CPU statistics: CpuStats, I-cache, D-cache, board cache, ITB,
//     DTB, write buffer, branch predictor and the CPU clock;
//   * the performance counters: PerfCountersStats and the edge samples;
//   * the SystemResult (minus publish_waits, which counts host-thread
//     backpressure and is the one host-timing-dependent field);
//   * every in-memory daemon profile, serialized;
//   * every file a database holds, as relative path plus bytes.

#ifndef TESTS_SIM_DIGEST_H_
#define TESTS_SIM_DIGEST_H_

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
#include "src/sim/system.h"
#include "src/support/fnv1a.h"

namespace dcpi {

inline std::string Hex(uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, value);
  return buf;
}

inline void DigestGroundTruth(Kernel& kernel, Fnv1a64* h) {
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

inline void DigestCpus(Kernel& kernel, Fnv1a64* h) {
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

inline void DigestCounters(System& system, Fnv1a64* h) {
  for (uint32_t cpu = 0; cpu < system.kernel().num_cpus(); ++cpu) {
    const PerfCounters* counters = system.counters(cpu);
    if (counters == nullptr) continue;
    const PerfCountersStats& s = counters->stats();
    for (uint64_t samples : s.samples) h->U64(samples);
    for (uint64_t v : {s.deferred_deliveries, s.handler_cycles, s.sink_cycles,
                       s.double_sample_cycles, s.wide_samples}) {
      h->U64(v);
    }
    h->U64(counters->edge_samples().size());
    for (const auto& [key, count] : counters->edge_samples()) {
      const auto& [pid, from, to] = key;
      for (uint64_t v : {static_cast<uint64_t>(pid), from, to, count}) h->U64(v);
    }
  }
}

inline void DigestResult(const SystemResult& r, Fnv1a64* h) {
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

inline void DigestProfiles(const Daemon& daemon, Fnv1a64* h) {
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

inline void DigestDatabase(const std::string& root, Fnv1a64* h) {
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

// One part's digest, for an EXPECT_EQ that names the part that differs.
template <typename Fn>
std::string PartDigest(Fn digest) {
  Fnv1a64 h;
  digest(&h);
  return Hex(h.value());
}

}  // namespace dcpi

#endif  // TESTS_SIM_DIGEST_H_
