#include "src/analysis/engine.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <unordered_map>
#include <utility>

#include "src/isa/image_io.h"
#include "src/profiledb/database.h"
#include "src/support/binary_io.h"
#include "src/support/crc32.h"
#include "src/support/fnv1a.h"
#include "src/support/parallel_for.h"

namespace dcpi {

namespace {

// Cache-entry header: magic, format version, then the 64-bit key. Bump the
// version whenever the header or payload layout changes; old entries then
// miss.
constexpr uint32_t kCacheMagic = 0x43415044;  // "DPAC"
// v4: one 64-bit key over the procedure's own samples, in place of the
// image, profile-set and config CRC32s.
constexpr uint8_t kCacheVersion = 4;

void PutF64(ByteWriter* w, double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  w->PutU64(bits);
}

Status GetF64(ByteReader* r, double* v) {
  uint64_t bits = 0;
  DCPI_RETURN_IF_ERROR(r->GetU64(&bits));
  std::memcpy(v, &bits, sizeof(bits));
  return Status::Ok();
}

// Small signed ints (block/edge/culprit ids with -1/-2 sentinels) are
// stored biased so they fit an unsigned varint.
void PutBiased(ByteWriter* w, int v, int bias) {
  w->PutVarint(static_cast<uint64_t>(v + bias));
}

Status GetBiased(ByteReader* r, int* v, int bias, int max_exclusive) {
  uint64_t raw = 0;
  DCPI_RETURN_IF_ERROR(r->GetVarint(&raw));
  int64_t value = static_cast<int64_t>(raw) - bias;
  if (value < -bias || value >= max_exclusive) {
    return IoError("cache entry id out of range");
  }
  *v = static_cast<int>(value);
  return Status::Ok();
}

Status GetCount(ByteReader* r, size_t* out, size_t max) {
  uint64_t raw = 0;
  DCPI_RETURN_IF_ERROR(r->GetVarint(&raw));
  if (raw > max) return IoError("cache entry count out of range");
  *out = static_cast<size_t>(raw);
  return Status::Ok();
}

// Sanity ceiling for deserialized vector sizes: nothing per-procedure
// legitimately exceeds this, and it keeps a corrupt length field from
// driving a huge allocation before the CRC would have caught it.
constexpr size_t kMaxCount = size_t{1} << 24;

void SerializeCfg(const Cfg& cfg, ByteWriter* w) {
  w->PutU64(cfg.proc_start());
  w->PutU64(cfg.proc_end());
  w->PutU8(cfg.missing_edges() ? 1 : 0);
  w->PutVarint(cfg.blocks().size());
  for (const BasicBlock& b : cfg.blocks()) {
    w->PutVarint(b.start_pc - cfg.proc_start());
    w->PutVarint(b.end_pc - b.start_pc);
    w->PutVarint(b.in_edges.size());
    for (int e : b.in_edges) w->PutVarint(static_cast<uint64_t>(e));
    w->PutVarint(b.out_edges.size());
    for (int e : b.out_edges) w->PutVarint(static_cast<uint64_t>(e));
  }
  w->PutVarint(cfg.edges().size());
  for (const CfgEdge& e : cfg.edges()) {
    PutBiased(w, e.from, 2);
    PutBiased(w, e.to, 2);
    w->PutU8(e.fallthrough ? 1 : 0);
  }
}

Result<Cfg> DeserializeCfg(ByteReader* r) {
  uint64_t proc_start = 0, proc_end = 0;
  uint8_t missing = 0;
  DCPI_RETURN_IF_ERROR(r->GetU64(&proc_start));
  DCPI_RETURN_IF_ERROR(r->GetU64(&proc_end));
  DCPI_RETURN_IF_ERROR(r->GetU8(&missing));
  size_t num_blocks = 0;
  DCPI_RETURN_IF_ERROR(GetCount(r, &num_blocks, kMaxCount));
  std::vector<BasicBlock> blocks(num_blocks);
  // Edge-id bounds are validated after the edge count is known.
  for (size_t i = 0; i < num_blocks; ++i) {
    BasicBlock& b = blocks[i];
    b.id = static_cast<int>(i);
    uint64_t start_off = 0, len = 0;
    DCPI_RETURN_IF_ERROR(r->GetVarint(&start_off));
    DCPI_RETURN_IF_ERROR(r->GetVarint(&len));
    b.start_pc = proc_start + start_off;
    b.end_pc = b.start_pc + len;
    for (std::vector<int>* edges : {&b.in_edges, &b.out_edges}) {
      size_t n = 0;
      DCPI_RETURN_IF_ERROR(GetCount(r, &n, kMaxCount));
      edges->resize(n);
      for (size_t k = 0; k < n; ++k) {
        uint64_t id = 0;
        DCPI_RETURN_IF_ERROR(r->GetVarint(&id));
        (*edges)[k] = static_cast<int>(id);
      }
    }
  }
  size_t num_edges = 0;
  DCPI_RETURN_IF_ERROR(GetCount(r, &num_edges, kMaxCount));
  std::vector<CfgEdge> edges(num_edges);
  for (size_t i = 0; i < num_edges; ++i) {
    CfgEdge& e = edges[i];
    e.id = static_cast<int>(i);
    DCPI_RETURN_IF_ERROR(GetBiased(r, &e.from, 2, static_cast<int>(num_blocks)));
    DCPI_RETURN_IF_ERROR(GetBiased(r, &e.to, 2, static_cast<int>(num_blocks)));
    uint8_t fallthrough = 0;
    DCPI_RETURN_IF_ERROR(r->GetU8(&fallthrough));
    e.fallthrough = fallthrough != 0;
  }
  for (const BasicBlock& b : blocks) {
    for (const std::vector<int>* list : {&b.in_edges, &b.out_edges}) {
      for (int id : *list) {
        if (id < 0 || static_cast<size_t>(id) >= num_edges) {
          return IoError("cache entry block references a bad edge id");
        }
      }
    }
  }
  return Cfg::FromParts(std::move(blocks), std::move(edges), missing != 0,
                        proc_start, proc_end);
}

void SerializeSchedules(const std::vector<BlockSchedule>& schedules, ByteWriter* w) {
  w->PutVarint(schedules.size());
  for (const BlockSchedule& s : schedules) {
    w->PutVarint(s.total_cycles);
    w->PutVarint(s.instrs.size());
    for (const StaticInstr& in : s.instrs) {
      w->PutVarint(in.issue_cycle);
      w->PutVarint(in.m);
      w->PutU8(static_cast<uint8_t>(in.stall));
      w->PutVarint(in.stall_cycles);
      PutBiased(w, in.culprit, 1);
      w->PutU8(in.dual_issued ? 1 : 0);
    }
  }
}

Status DeserializeSchedules(ByteReader* r, std::vector<BlockSchedule>* out) {
  size_t n = 0;
  DCPI_RETURN_IF_ERROR(GetCount(r, &n, kMaxCount));
  out->resize(n);
  for (BlockSchedule& s : *out) {
    DCPI_RETURN_IF_ERROR(r->GetVarint(&s.total_cycles));
    size_t m = 0;
    DCPI_RETURN_IF_ERROR(GetCount(r, &m, kMaxCount));
    s.instrs.resize(m);
    for (StaticInstr& in : s.instrs) {
      DCPI_RETURN_IF_ERROR(r->GetVarint(&in.issue_cycle));
      DCPI_RETURN_IF_ERROR(r->GetVarint(&in.m));
      uint8_t stall = 0;
      DCPI_RETURN_IF_ERROR(r->GetU8(&stall));
      if (stall > static_cast<uint8_t>(StaticStallKind::kSlotting)) {
        return IoError("cache entry has a bad stall kind");
      }
      in.stall = static_cast<StaticStallKind>(stall);
      DCPI_RETURN_IF_ERROR(r->GetVarint(&in.stall_cycles));
      DCPI_RETURN_IF_ERROR(GetBiased(r, &in.culprit, 1, static_cast<int>(m)));
      uint8_t dual = 0;
      DCPI_RETURN_IF_ERROR(r->GetU8(&dual));
      in.dual_issued = dual != 0;
    }
  }
  return Status::Ok();
}

void SerializeInstructions(const std::vector<InstructionAnalysis>& instrs,
                           ByteWriter* w) {
  w->PutVarint(instrs.size());
  for (const InstructionAnalysis& ia : instrs) {
    PutBiased(w, ia.block, 1);
    w->PutVarint(ia.samples);
    w->PutVarint(ia.m);
    w->PutU8(ia.dual_issued ? 1 : 0);
    PutF64(w, ia.frequency);
    PutF64(w, ia.cpi);
    w->PutU8(static_cast<uint8_t>(ia.confidence));
    w->PutU8(static_cast<uint8_t>(ia.static_stall));
    w->PutVarint(ia.static_stall_cycles);
    w->PutVarint(ia.static_culprit_pc);
    PutF64(w, ia.dynamic_stall);
    uint64_t culprit_mask = 0;
    for (int k = 0; k < kNumCulpritKinds; ++k) {
      if (ia.culprits[k]) culprit_mask |= uint64_t{1} << k;
    }
    w->PutVarint(culprit_mask);
    w->PutVarint(ia.dcache_culprit_pc);
    w->PutU8(ia.unexplained ? 1 : 0);
    PutF64(w, ia.icache_floor_cycles);
  }
}

// The decoded words are re-derived from the image: pc k is
// proc_start + k * kInstrBytes, matching AnalyzeProcedure's layout.
Status DeserializeInstructions(ByteReader* r, const ExecutableImage& image,
                               uint64_t proc_start, size_t expected_count,
                               std::vector<InstructionAnalysis>* out) {
  size_t n = 0;
  DCPI_RETURN_IF_ERROR(GetCount(r, &n, kMaxCount));
  if (n != expected_count) {
    return IoError("cache entry instruction count does not match the procedure");
  }
  out->resize(n);
  for (size_t k = 0; k < n; ++k) {
    InstructionAnalysis& ia = (*out)[k];
    ia.pc = proc_start + k * kInstrBytes;
    auto word = image.InstructionAt(ia.pc);
    if (!word) return IoError("cache entry pc outside the image text");
    auto inst = Decode(*word);
    if (!inst) return IoError("cache entry covers an undecodable instruction");
    ia.inst = *inst;
    DCPI_RETURN_IF_ERROR(GetBiased(r, &ia.block, 1, static_cast<int>(kMaxCount)));
    DCPI_RETURN_IF_ERROR(r->GetVarint(&ia.samples));
    DCPI_RETURN_IF_ERROR(r->GetVarint(&ia.m));
    uint8_t dual = 0;
    DCPI_RETURN_IF_ERROR(r->GetU8(&dual));
    ia.dual_issued = dual != 0;
    DCPI_RETURN_IF_ERROR(GetF64(r, &ia.frequency));
    DCPI_RETURN_IF_ERROR(GetF64(r, &ia.cpi));
    uint8_t confidence = 0, stall = 0;
    DCPI_RETURN_IF_ERROR(r->GetU8(&confidence));
    if (confidence > static_cast<uint8_t>(Confidence::kHigh)) {
      return IoError("cache entry has a bad confidence");
    }
    ia.confidence = static_cast<Confidence>(confidence);
    DCPI_RETURN_IF_ERROR(r->GetU8(&stall));
    if (stall > static_cast<uint8_t>(StaticStallKind::kSlotting)) {
      return IoError("cache entry has a bad stall kind");
    }
    ia.static_stall = static_cast<StaticStallKind>(stall);
    DCPI_RETURN_IF_ERROR(r->GetVarint(&ia.static_stall_cycles));
    DCPI_RETURN_IF_ERROR(r->GetVarint(&ia.static_culprit_pc));
    DCPI_RETURN_IF_ERROR(GetF64(r, &ia.dynamic_stall));
    uint64_t culprit_mask = 0;
    DCPI_RETURN_IF_ERROR(r->GetVarint(&culprit_mask));
    if (culprit_mask >> kNumCulpritKinds != 0) {
      return IoError("cache entry has a bad culprit mask");
    }
    for (int c = 0; c < kNumCulpritKinds; ++c) {
      ia.culprits[c] = (culprit_mask >> c) & 1;
    }
    DCPI_RETURN_IF_ERROR(r->GetVarint(&ia.dcache_culprit_pc));
    uint8_t unexplained = 0;
    DCPI_RETURN_IF_ERROR(r->GetU8(&unexplained));
    ia.unexplained = unexplained != 0;
    DCPI_RETURN_IF_ERROR(GetF64(r, &ia.icache_floor_cycles));
  }
  return Status::Ok();
}

void SerializeFrequencies(const FrequencyResult& freq, ByteWriter* w) {
  w->PutVarint(freq.block_freq.size());
  for (double f : freq.block_freq) PutF64(w, f);
  for (Confidence c : freq.block_conf) w->PutU8(static_cast<uint8_t>(c));
  for (int c : freq.block_class) PutBiased(w, c, 1);
  w->PutVarint(freq.edge_freq.size());
  for (double f : freq.edge_freq) PutF64(w, f);
  for (Confidence c : freq.edge_conf) w->PutU8(static_cast<uint8_t>(c));
  for (int c : freq.edge_class) PutBiased(w, c, 1);
  w->PutVarint(static_cast<uint64_t>(freq.graph.num_vertices));
  w->PutVarint(freq.graph.edges.size());
  for (const auto& [u, v] : freq.graph.edges) {
    w->PutVarint(static_cast<uint64_t>(u));
    w->PutVarint(static_cast<uint64_t>(v));
  }
}

Status DeserializeFrequencies(ByteReader* r, FrequencyResult* out) {
  for (auto [freqs, confs, classes] :
       {std::make_tuple(&out->block_freq, &out->block_conf, &out->block_class),
        std::make_tuple(&out->edge_freq, &out->edge_conf, &out->edge_class)}) {
    size_t n = 0;
    DCPI_RETURN_IF_ERROR(GetCount(r, &n, kMaxCount));
    freqs->resize(n);
    confs->resize(n);
    classes->resize(n);
    for (double& f : *freqs) DCPI_RETURN_IF_ERROR(GetF64(r, &f));
    for (Confidence& c : *confs) {
      uint8_t raw = 0;
      DCPI_RETURN_IF_ERROR(r->GetU8(&raw));
      if (raw > static_cast<uint8_t>(Confidence::kHigh)) {
        return IoError("cache entry has a bad confidence");
      }
      c = static_cast<Confidence>(raw);
    }
    for (int& c : *classes) {
      DCPI_RETURN_IF_ERROR(GetBiased(r, &c, 1, static_cast<int>(kMaxCount)));
    }
  }
  uint64_t num_vertices = 0;
  DCPI_RETURN_IF_ERROR(r->GetVarint(&num_vertices));
  if (num_vertices > kMaxCount) return IoError("cache entry graph too large");
  out->graph.num_vertices = static_cast<int>(num_vertices);
  size_t num_edges = 0;
  DCPI_RETURN_IF_ERROR(GetCount(r, &num_edges, kMaxCount));
  out->graph.edges.resize(num_edges);
  for (auto& [u, v] : out->graph.edges) {
    uint64_t raw_u = 0, raw_v = 0;
    DCPI_RETURN_IF_ERROR(r->GetVarint(&raw_u));
    DCPI_RETURN_IF_ERROR(r->GetVarint(&raw_v));
    if (raw_u >= num_vertices || raw_v >= num_vertices) {
      return IoError("cache entry graph edge out of range");
    }
    u = static_cast<int>(raw_u);
    v = static_cast<int>(raw_v);
  }
  return Status::Ok();
}

void SerializeSummary(const StallSummary& s, ByteWriter* w) {
  w->PutVarint(static_cast<uint64_t>(kNumCulpritKinds));
  PutF64(w, s.total_cycles);
  for (double v : s.dynamic_min_pct) PutF64(w, v);
  for (double v : s.dynamic_max_pct) PutF64(w, v);
  PutF64(w, s.unexplained_stall_pct);
  PutF64(w, s.unexplained_gain_pct);
  PutF64(w, s.total_dynamic_pct);
  PutF64(w, s.static_pct_slotting);
  PutF64(w, s.static_pct_ra);
  PutF64(w, s.static_pct_rb);
  PutF64(w, s.static_pct_rc);
  PutF64(w, s.static_pct_fu);
  PutF64(w, s.execution_pct);
}

Status DeserializeSummary(ByteReader* r, StallSummary* s) {
  uint64_t kinds = 0;
  DCPI_RETURN_IF_ERROR(r->GetVarint(&kinds));
  if (kinds != static_cast<uint64_t>(kNumCulpritKinds)) {
    return IoError("cache entry culprit-kind count mismatch");
  }
  DCPI_RETURN_IF_ERROR(GetF64(r, &s->total_cycles));
  for (double& v : s->dynamic_min_pct) DCPI_RETURN_IF_ERROR(GetF64(r, &v));
  for (double& v : s->dynamic_max_pct) DCPI_RETURN_IF_ERROR(GetF64(r, &v));
  DCPI_RETURN_IF_ERROR(GetF64(r, &s->unexplained_stall_pct));
  DCPI_RETURN_IF_ERROR(GetF64(r, &s->unexplained_gain_pct));
  DCPI_RETURN_IF_ERROR(GetF64(r, &s->total_dynamic_pct));
  DCPI_RETURN_IF_ERROR(GetF64(r, &s->static_pct_slotting));
  DCPI_RETURN_IF_ERROR(GetF64(r, &s->static_pct_ra));
  DCPI_RETURN_IF_ERROR(GetF64(r, &s->static_pct_rb));
  DCPI_RETURN_IF_ERROR(GetF64(r, &s->static_pct_rc));
  DCPI_RETURN_IF_ERROR(GetF64(r, &s->static_pct_fu));
  DCPI_RETURN_IF_ERROR(GetF64(r, &s->execution_pct));
  return Status::Ok();
}

void SerializeReport(const CheckReport& report, ByteWriter* w) {
  w->PutVarint(report.violations().size());
  for (const CheckViolation& v : report.violations()) {
    w->PutU8(static_cast<uint8_t>(v.pass));
    w->PutU8(static_cast<uint8_t>(v.severity));
    w->PutString(v.message);
    w->PutString(v.image);
    w->PutString(v.proc);
    w->PutVarint(v.pc);
    PutBiased(w, v.block, 1);
    PutBiased(w, v.edge, 1);
  }
}

Status DeserializeReport(ByteReader* r, CheckReport* report) {
  size_t n = 0;
  DCPI_RETURN_IF_ERROR(GetCount(r, &n, kMaxCount));
  for (size_t i = 0; i < n; ++i) {
    CheckViolation v;
    uint8_t pass = 0, severity = 0;
    DCPI_RETURN_IF_ERROR(r->GetU8(&pass));
    if (pass >= static_cast<uint8_t>(CheckPass::kCheckPassCount)) {
      return IoError("cache entry has a bad check pass");
    }
    v.pass = static_cast<CheckPass>(pass);
    DCPI_RETURN_IF_ERROR(r->GetU8(&severity));
    if (severity > static_cast<uint8_t>(CheckSeverity::kError)) {
      return IoError("cache entry has a bad severity");
    }
    v.severity = static_cast<CheckSeverity>(severity);
    DCPI_RETURN_IF_ERROR(r->GetString(&v.message));
    DCPI_RETURN_IF_ERROR(r->GetString(&v.image));
    DCPI_RETURN_IF_ERROR(r->GetString(&v.proc));
    DCPI_RETURN_IF_ERROR(r->GetVarint(&v.pc));
    DCPI_RETURN_IF_ERROR(GetBiased(r, &v.block, 1, static_cast<int>(kMaxCount)));
    DCPI_RETURN_IF_ERROR(GetBiased(r, &v.edge, 1, static_cast<int>(kMaxCount)));
    report->Add(std::move(v));
  }
  return Status::Ok();
}

}  // namespace

std::vector<uint8_t> SerializeProcedureAnalysis(const ProcedureAnalysis& analysis) {
  ByteWriter w;
  w.PutString(analysis.proc_name);
  SerializeCfg(analysis.cfg, &w);
  SerializeSchedules(analysis.schedules, &w);
  SerializeInstructions(analysis.instructions, &w);
  SerializeFrequencies(analysis.frequencies, &w);
  PutF64(&w, analysis.best_case_cpi);
  PutF64(&w, analysis.actual_cpi);
  PutF64(&w, analysis.total_frequency);
  SerializeSummary(analysis.summary, &w);
  SerializeReport(analysis.selfcheck_report, &w);
  return w.bytes();
}

Result<ProcedureAnalysis> DeserializeProcedureAnalysis(
    const uint8_t* data, size_t size, const ExecutableImage& image) {
  ByteReader r(data, size);
  ProcedureAnalysis analysis;
  DCPI_RETURN_IF_ERROR(r.GetString(&analysis.proc_name));
  auto cfg = DeserializeCfg(&r);
  if (!cfg.ok()) return cfg.status();
  analysis.cfg = std::move(cfg).value();
  if (analysis.cfg.proc_end() < analysis.cfg.proc_start()) {
    return IoError("cache entry has an inverted procedure range");
  }
  DCPI_RETURN_IF_ERROR(DeserializeSchedules(&r, &analysis.schedules));
  const size_t num_instrs = static_cast<size_t>(
      (analysis.cfg.proc_end() - analysis.cfg.proc_start()) / kInstrBytes);
  DCPI_RETURN_IF_ERROR(DeserializeInstructions(&r, image, analysis.cfg.proc_start(),
                                               num_instrs, &analysis.instructions));
  DCPI_RETURN_IF_ERROR(DeserializeFrequencies(&r, &analysis.frequencies));
  DCPI_RETURN_IF_ERROR(GetF64(&r, &analysis.best_case_cpi));
  DCPI_RETURN_IF_ERROR(GetF64(&r, &analysis.actual_cpi));
  DCPI_RETURN_IF_ERROR(GetF64(&r, &analysis.total_frequency));
  DCPI_RETURN_IF_ERROR(DeserializeSummary(&r, &analysis.summary));
  DCPI_RETURN_IF_ERROR(DeserializeReport(&r, &analysis.selfcheck_report));
  if (!r.AtEnd()) return IoError("cache entry has trailing bytes");
  return analysis;
}

namespace {

uint32_t Fold32(uint64_t hash) { return static_cast<uint32_t>(hash ^ (hash >> 32)); }

void HashSymbol(const ProcedureSymbol& proc, Fnv1a64* h) {
  h->Str(proc.name);
  h->U64(proc.start);
  h->U64(proc.end);
}

// Hashes only what analysis consumes: the name, text placement, the
// instruction words, and the procedure symbol table. The data section
// (multi-megabyte for some workloads) never feeds analysis, and hashing a
// full image serialization would sit on every cached run's critical path.
uint64_t ImageContentHash(const ExecutableImage& image) {
  Fnv1a64 h;
  h.U8(1);  // key layout version
  h.Str(image.name());
  h.U64(image.text_base());
  h.U64(image.text().size());
  h.Bytes(image.text().data(), image.text().size() * sizeof(uint32_t));
  h.U64(image.procedures().size());
  for (const ProcedureSymbol& proc : image.procedures()) HashSymbol(proc, &h);
  return h.value();
}

// Feeds `h` everything analyzing `proc` reads from the input's profiles: for
// each event slot a presence byte (a null profile and an empty one analyze
// differently), and for a present profile its mean period and the on-grid,
// nonzero (offset, count) pairs in the procedure's range — the same range
// walk as ImageProfile::ExtractDense, so exactly what it hands the analyzer.
// Each pair is marked and the list terminated, so the bytes are canonical.
void HashProcedureSamples(const AnalysisInput& input, const ProcedureSymbol& proc,
                          Fnv1a64* h) {
  const uint64_t begin = input.image->PcToOffset(proc.start);
  const uint64_t end = input.image->PcToOffset(proc.end);
  for (const ImageProfile* profile :
       {input.cycles, input.imiss, input.dmiss, input.branchmp, input.dtbmiss}) {
    h->U8(profile != nullptr);
    if (profile == nullptr) continue;
    uint64_t period = 0;
    const double mean_period = profile->mean_period();
    std::memcpy(&period, &mean_period, sizeof(period));
    h->U64(period);
    const std::map<uint64_t, uint64_t>& counts = profile->counts();
    for (auto it = counts.lower_bound(begin); it != counts.end() && it->first < end;
         ++it) {
      if ((it->first - begin) % kInstrBytes != 0 || it->second == 0) continue;
      h->U8(1);
      h->U64(it->first);
      h->U64(it->second);
    }
    h->U8(0);
  }
}

// The key of `proc`'s entry: what its analysis reads, and nothing else.
uint64_t ProcedureKey(uint64_t image_hash, uint64_t config_fp, const AnalysisInput& input,
                      const ProcedureSymbol& proc) {
  Fnv1a64 h;
  h.U64(image_hash);
  h.U64(config_fp);
  HashSymbol(proc, &h);
  HashProcedureSamples(input, proc, &h);
  return h.value();
}

}  // namespace

uint32_t ImageContentCrc(const ExecutableImage& image) {
  return Fold32(ImageContentHash(image));
}

uint32_t ProfileSetCrc(const AnalysisInput& input) {
  Fnv1a64 h;
  for (const ProcedureSymbol& proc : input.image->procedures()) {
    HashProcedureSamples(input, proc, &h);
  }
  return Fold32(h.value());
}

uint64_t ConfigFingerprint(const AnalysisConfig& config) {
  ByteWriter w;
  w.PutU8(1);  // fingerprint layout version
  // Every machine and tuning constant the analysis reads, so that editing
  // one misses every cached result.
  w.PutU64(kIntLatency);
  w.PutU64(kImulLatency);
  w.PutU64(kFpLatency);
  w.PutU64(kFpMulLatency);
  w.PutU64(kFdivLatency);
  w.PutU64(kImulRepeat);
  w.PutU64(kFdivRepeat);
  w.PutU32(kFetchPerCycle);
  w.PutU64(kTakenBranchBubble);
  w.PutU64(kJumpBubble);
  w.PutU64(kMispredictPenalty);
  w.PutU64(kLoadHitLatency);
  w.PutU64(kIcacheGeometry.line_bytes);
  w.PutU64(kMaxFillCycles);
  w.PutU64(kMinFillCycles);
  PutF64(&w, kIcacheRuleFreqFraction);
  w.PutU64(static_cast<uint64_t>(kLookbackInstructions));
  PutF64(&w, kMinDynamicStall);
  PutF64(&w, kClusterWidth);
  PutF64(&w, kMinClusterFraction);
  w.PutU64(kFewSamplesThreshold);
  PutF64(&w, kMaxReasonableStall);
  w.PutU64(static_cast<uint64_t>(kMaxPropagationPasses));
  w.PutU64(kMinNonleadingPoints);
  w.PutU8(config.selfcheck ? 1 : 0);
  Fnv1a64 h;
  h.Bytes(w.bytes().data(), w.bytes().size());
  return h.value();
}

std::string CacheEntryPath(const std::string& cache_dir, const std::string& image_name,
                           uint64_t config_fp, const ProcedureSymbol& proc) {
  Fnv1a64 h;
  h.Str(image_name);
  h.U64(config_fp);
  HashSymbol(proc, &h);
  char name[32];
  std::snprintf(name, sizeof(name), "%016" PRIx64 ".pac", h.value());
  return (std::filesystem::path(cache_dir) / name).string();
}

namespace {

std::vector<uint8_t> BuildCacheEntry(uint64_t key, const ProcedureSymbol& proc,
                                     const ProcedureAnalysis& analysis) {
  ByteWriter w;
  w.PutU32(kCacheMagic);
  w.PutU8(kCacheVersion);
  w.PutU64(key);
  w.PutString(proc.name);
  w.PutU64(proc.start);
  w.PutU64(proc.end);
  std::vector<uint8_t> payload = SerializeProcedureAnalysis(analysis);
  std::vector<uint8_t> bytes = w.bytes();
  bytes.insert(bytes.end(), payload.begin(), payload.end());
  const uint32_t crc = Crc32(bytes);
  ByteWriter trailer;
  trailer.PutU32(crc);
  bytes.insert(bytes.end(), trailer.bytes().begin(), trailer.bytes().end());
  return bytes;
}

// Loads a cache entry; any failure (missing file, bad checksum, a key that
// differs because the slot holds other inputs' analysis, malformed
// payload) is a miss.
bool LoadCacheEntry(const std::string& path, uint64_t key, const ProcedureSymbol& proc,
                    const ExecutableImage& image, ProcedureAnalysis* out) {
  std::vector<uint8_t> bytes;
  if (!ReadFile(path, &bytes).ok()) return false;
  if (bytes.size() < 4) return false;
  ByteReader trailer(bytes.data() + bytes.size() - 4, 4);
  uint32_t stored_crc = 0;
  if (!trailer.GetU32(&stored_crc).ok()) return false;
  if (Crc32(bytes.data(), bytes.size() - 4) != stored_crc) return false;
  ByteReader r(bytes.data(), bytes.size() - 4);
  uint32_t magic = 0;
  uint8_t version = 0;
  uint64_t stored_key = 0;
  if (!r.GetU32(&magic).ok() || magic != kCacheMagic) return false;
  if (!r.GetU8(&version).ok() || version != kCacheVersion) return false;
  if (!r.GetU64(&stored_key).ok() || stored_key != key) return false;
  std::string name;
  uint64_t start = 0, end = 0;
  if (!r.GetString(&name).ok() || name != proc.name) return false;
  if (!r.GetU64(&start).ok() || start != proc.start) return false;
  if (!r.GetU64(&end).ok() || end != proc.end) return false;
  auto analysis = DeserializeProcedureAnalysis(
      bytes.data() + r.position(), bytes.size() - 4 - r.position(), image);
  if (!analysis.ok()) return false;
  if (analysis.value().proc_name != proc.name ||
      analysis.value().cfg.proc_start() != proc.start ||
      analysis.value().cfg.proc_end() != proc.end) {
    return false;
  }
  *out = std::move(analysis).value();
  return true;
}

// Tallies a finished analysis's cache use: a hit was served from the
// cache, a miss analyzed fresh with the cache on.
void CountCacheUse(bool cache, EpochAnalysis* analysis) {
  for (const ProcedureResult& r : analysis->procedures) {
    if (!r.status.ok()) continue;
    if (r.from_cache) {
      ++analysis->cache_hits;
    } else if (cache) {
      ++analysis->cache_misses;
    }
  }
}

}  // namespace

AnalysisEngine::AnalysisEngine(EngineOptions options)
    : options_(std::move(options)),
      jobs_(options_.jobs < 1 ? HardwareConcurrency() : options_.jobs) {}

void AnalysisEngine::AddTasks(const std::vector<AnalysisInput>& inputs,
                              const std::string& cache_dir, EpochAnalysis* out,
                              std::vector<Task>* tasks) {
  size_t slots = 0;
  for (const AnalysisInput& input : inputs) slots += input.image->procedures().size();
  out->procedures.resize(slots);
  ProcedureResult* slot = out->procedures.data();
  for (const AnalysisInput& input : inputs) {
    for (const ProcedureSymbol& proc : input.image->procedures()) {
      tasks->push_back(Task{&input, &proc, &cache_dir, slot++});
    }
  }
}

void AnalysisEngine::Run(const std::vector<Task>& tasks,
                         const AnalysisConfig& config) {
  // Inputs of one call share images (AnalyzeDatabase's epochs), so each
  // distinct image is hashed once, here; each task hashes its own
  // procedure's samples in its worker.
  std::vector<uint64_t> image_hashes(tasks.size());
  std::unordered_map<const ExecutableImage*, uint64_t> hashed;
  const std::string* made = nullptr;
  for (size_t t = 0; t < tasks.size(); ++t) {
    const Task& task = tasks[t];
    if (task.cache_dir->empty() || task.input->cycles == nullptr) continue;
    auto [hash, fresh] = hashed.try_emplace(task.input->image.get());
    if (fresh) hash->second = ImageContentHash(*task.input->image);
    image_hashes[t] = hash->second;
    if (task.cache_dir != made) {
      made = task.cache_dir;
      // An unwritable cache directory degrades to cache-off behaviour:
      // loads miss and stores fail silently.
      std::error_code ec;
      std::filesystem::create_directories(*made, ec);
    }
  }
  const uint64_t config_fp = ConfigFingerprint(config);

  std::vector<AnalysisScratch> scratch(
      std::min(tasks.size(), static_cast<size_t>(jobs_)));
  ParallelFor(jobs_, tasks.size(), [&](size_t t, int worker) {
    const Task& task = tasks[t];
    const AnalysisInput& input = *task.input;
    ProcedureResult* out = task.out;
    out->image_name = input.image->name();
    out->proc = *task.proc;
    if (input.cycles == nullptr) {
      out->status = InvalidArgument("no CYCLES profile for image " + out->image_name);
      return;
    }
    const bool cache = !task.cache_dir->empty();
    uint64_t key = 0;
    std::string path;
    if (cache) {
      key = ProcedureKey(image_hashes[t], config_fp, input, *task.proc);
      path = CacheEntryPath(*task.cache_dir, out->image_name, config_fp, *task.proc);
      if (LoadCacheEntry(path, key, *task.proc, *input.image, &out->analysis)) {
        out->from_cache = true;
        out->status = Status::Ok();
        return;
      }
    }
    Result<ProcedureAnalysis> result = options_.analyze(
        *input.image, *task.proc, *input.cycles, input.imiss, input.dmiss,
        input.branchmp, input.dtbmiss, config, &scratch[worker]);
    out->status = result.status();
    if (!result.ok()) return;
    out->analysis = std::move(result).value();
    if (cache) {
      // Best effort: a failed store just means the next run recomputes.
      // A store replaces whatever the slot held.
      Status stored =
          WriteFileAtomic(path, BuildCacheEntry(key, *task.proc, out->analysis));
      (void)stored;
    }
  });
}

EpochAnalysis AnalysisEngine::AnalyzeAll(const std::vector<AnalysisInput>& inputs,
                                         const AnalysisConfig& config) {
  EpochAnalysis out;
  std::vector<Task> tasks;
  AddTasks(inputs, options_.cache_dir, &out, &tasks);
  Run(tasks, config);
  CountCacheUse(!options_.cache_dir.empty(), &out);
  return out;
}

ProcedureResult AnalysisEngine::AnalyzeOne(const AnalysisInput& input,
                                           const ProcedureSymbol& proc,
                                           const AnalysisConfig& config) {
  ProcedureResult result;
  Run({Task{&input, &proc, &options_.cache_dir, &result}}, config);
  return result;
}

DatabaseAnalysis AnalysisEngine::AnalyzeDatabase(
    const ProfileDatabase& db,
    const std::vector<std::shared_ptr<const ExecutableImage>>& images,
    const AnalysisConfig& config, const DatabaseAnalysisOptions& opts) {
  const size_t num_epochs = opts.epochs.size();
  DatabaseAnalysis out;
  out.per_epoch.resize(num_epochs);
  // Every epoch's profiles are read here and live until the fan-out ends;
  // the inputs reference them, and the tasks the inputs and cache paths.
  std::vector<std::unique_ptr<ImageProfile>> profiles;
  std::vector<std::vector<AnalysisInput>> inputs(num_epochs);
  std::vector<std::string> cache_dirs(num_epochs);
  std::vector<Task> tasks;
  for (size_t e = 0; e < num_epochs; ++e) {
    EpochAnalysisResult& per_epoch = out.per_epoch[e];
    per_epoch.epoch = opts.epochs[e];
    auto read = [&](const std::string& name, EventType event) -> const ImageProfile* {
      Result<ImageProfile> profile = db.ReadProfile(per_epoch.epoch, name, event);
      if (!profile.ok()) return nullptr;
      profiles.push_back(
          std::make_unique<ImageProfile>(std::move(profile).value()));
      return profiles.back().get();
    };
    for (size_t i = 0; i < images.size(); ++i) {
      const ImageProfile* cycles = read(images[i]->name(), EventType::kCycles);
      if (cycles == nullptr) continue;  // image idle this epoch
      AnalysisInput input;
      input.image = images[i];
      input.cycles = cycles;
      input.imiss = read(images[i]->name(), EventType::kImiss);
      input.dmiss = read(images[i]->name(), EventType::kDmiss);
      input.branchmp = read(images[i]->name(), EventType::kBranchMp);
      input.dtbmiss = read(images[i]->name(), EventType::kDtbMiss);
      per_epoch.analyzed_images.push_back(i);
      inputs[e].push_back(std::move(input));
    }
    if (opts.use_cache) cache_dirs[e] = db.EpochCacheDir(per_epoch.epoch);
    AddTasks(inputs[e], cache_dirs[e], &per_epoch.analysis, &tasks);
  }
  Run(tasks, config);
  for (EpochAnalysisResult& per_epoch : out.per_epoch) {
    CountCacheUse(opts.use_cache, &per_epoch.analysis);
    out.cache_hits += per_epoch.analysis.cache_hits;
    out.cache_misses += per_epoch.analysis.cache_misses;
  }
  return out;
}

}  // namespace dcpi
