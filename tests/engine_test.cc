// AnalysisEngine tests: cache-entry serialization round-trips, hit/miss
// behaviour of the per-procedure cache (identical inputs hit; image,
// config, or the procedure's own samples changing miss, samples elsewhere
// do not; a slot holding a corrupt or foreign entry is recomputed and
// replaced), and byte-identical results regardless of the jobs count.

#include "src/analysis/engine.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "src/isa/assembler.h"
#include "tests/scratch_dir.h"

namespace dcpi {
namespace {

// Two procedures so AnalyzeAll has more than one task: a diamond with a
// loop and a straight-line tail.
constexpr char kSource[] = R"(
        .text
        .proc diamond
        li   r1, 7
        li   r3, 0
        li   r9, 64
head:   addq r1, 1, r1
        and  r1, 1, r2
        beq  r2, arm_b
        addq r3, 1, r3
        br   r31, join
arm_b:  subq r3, 1, r3
join:   subq r9, 1, r9
        bne  r9, head
        halt
        .endp
        .proc straight
        li   r4, 3
        addq r4, 2, r5
        subq r5, 1, r6
        halt
        .endp
)";

struct Fixture {
  std::shared_ptr<ExecutableImage> image;
  ImageProfile cycles{"t", EventType::kCycles, 100.0};
};

Fixture MakeFixture() {
  Fixture f;
  f.image = Assemble("t", 0x0100'0000, kSource).value();
  for (size_t i = 0; i < f.image->num_instructions(); ++i) {
    f.cycles.AddSamples(i * kInstrBytes, 5 + (i % 3));
  }
  return f;
}

AnalysisInput InputFor(const Fixture& f) {
  AnalysisInput input;
  input.image = f.image;
  input.cycles = &f.cycles;
  return input;
}

// The number of cache entries under `dir`.
size_t PacFiles(const std::string& dir) {
  size_t n = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    n += entry.path().extension() == ".pac";
  }
  return n;
}

std::vector<uint8_t> FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
}

// Canonical bytes of every result, for whole-epoch equality checks.
std::vector<std::vector<uint8_t>> ResultBytes(const EpochAnalysis& epoch) {
  std::vector<std::vector<uint8_t>> bytes;
  for (const ProcedureResult& r : epoch.procedures) {
    EXPECT_TRUE(r.status.ok()) << r.status.ToString();
    bytes.push_back(SerializeProcedureAnalysis(r.analysis));
  }
  return bytes;
}

TEST(EngineSerialization, RoundTripsThroughBytes) {
  Fixture f = MakeFixture();
  const ProcedureSymbol* proc = f.image->FindProcedureByName("diamond");
  ASSERT_NE(proc, nullptr);
  AnalysisConfig config;
  config.selfcheck = false;
  Result<ProcedureAnalysis> analysis =
      AnalyzeProcedure(*f.image, *proc, f.cycles, nullptr, nullptr, nullptr,
                       nullptr, config);
  ASSERT_TRUE(analysis.ok()) << analysis.status().ToString();

  std::vector<uint8_t> bytes = SerializeProcedureAnalysis(analysis.value());
  Result<ProcedureAnalysis> restored = DeserializeProcedureAnalysis(bytes, *f.image);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();

  const ProcedureAnalysis& a = analysis.value();
  const ProcedureAnalysis& b = restored.value();
  EXPECT_EQ(a.proc_name, b.proc_name);
  EXPECT_EQ(a.cfg.blocks().size(), b.cfg.blocks().size());
  EXPECT_EQ(a.cfg.edges().size(), b.cfg.edges().size());
  EXPECT_EQ(a.cfg.proc_start(), b.cfg.proc_start());
  EXPECT_EQ(a.cfg.proc_end(), b.cfg.proc_end());
  ASSERT_EQ(a.instructions.size(), b.instructions.size());
  for (size_t i = 0; i < a.instructions.size(); ++i) {
    EXPECT_EQ(a.instructions[i].pc, b.instructions[i].pc);
    EXPECT_EQ(Encode(a.instructions[i].inst), Encode(b.instructions[i].inst));
    EXPECT_EQ(a.instructions[i].samples, b.instructions[i].samples);
    EXPECT_EQ(a.instructions[i].m, b.instructions[i].m);
    EXPECT_EQ(a.instructions[i].frequency, b.instructions[i].frequency);
    EXPECT_EQ(a.instructions[i].cpi, b.instructions[i].cpi);
  }
  EXPECT_EQ(a.frequencies.block_freq, b.frequencies.block_freq);
  EXPECT_EQ(a.frequencies.edge_freq, b.frequencies.edge_freq);
  EXPECT_EQ(a.frequencies.block_class, b.frequencies.block_class);
  EXPECT_EQ(a.frequencies.graph.num_vertices, b.frequencies.graph.num_vertices);
  EXPECT_EQ(a.frequencies.graph.edges, b.frequencies.graph.edges);
  EXPECT_EQ(a.best_case_cpi, b.best_case_cpi);
  EXPECT_EQ(a.actual_cpi, b.actual_cpi);
  EXPECT_EQ(a.summary.total_cycles, b.summary.total_cycles);
  EXPECT_EQ(a.summary.execution_pct, b.summary.execution_pct);
  // The full payloads agree byte for byte.
  EXPECT_EQ(bytes, SerializeProcedureAnalysis(b));
}

TEST(EngineSerialization, RejectsTruncatedAndTrailingBytes) {
  Fixture f = MakeFixture();
  const ProcedureSymbol* proc = f.image->FindProcedureByName("straight");
  AnalysisConfig config;
  ProcedureAnalysis analysis =
      AnalyzeProcedure(*f.image, *proc, f.cycles, nullptr, nullptr, nullptr,
                       nullptr, config)
          .value();
  std::vector<uint8_t> bytes = SerializeProcedureAnalysis(analysis);
  std::vector<uint8_t> truncated(bytes.begin(), bytes.end() - 3);
  EXPECT_FALSE(DeserializeProcedureAnalysis(truncated, *f.image).ok());
  std::vector<uint8_t> extended = bytes;
  extended.push_back(0);
  EXPECT_FALSE(DeserializeProcedureAnalysis(extended, *f.image).ok());
}

TEST(Engine, ResultsAreIdenticalForAnyJobsCount) {
  Fixture f = MakeFixture();
  AnalysisConfig config;
  EngineOptions serial;
  serial.jobs = 1;
  EngineOptions wide;
  wide.jobs = 4;
  EpochAnalysis one = AnalysisEngine(serial).AnalyzeAll({InputFor(f)}, config);
  EpochAnalysis four = AnalysisEngine(wide).AnalyzeAll({InputFor(f)}, config);
  ASSERT_EQ(one.procedures.size(), f.image->procedures().size());
  EXPECT_EQ(ResultBytes(one), ResultBytes(four));
  // Order is the image's procedure order.
  for (size_t i = 0; i < one.procedures.size(); ++i) {
    EXPECT_EQ(one.procedures[i].proc.name, f.image->procedures()[i].name);
  }
}

TEST(Engine, CacheHitsOnIdenticalInputs) {
  Fixture f = MakeFixture();
  AnalysisConfig config;
  EngineOptions options;
  options.jobs = 2;
  ScratchDir scratch;
  options.cache_dir = scratch.path() + "/cache";

  EpochAnalysis cold = AnalysisEngine(options).AnalyzeAll({InputFor(f)}, config);
  EXPECT_EQ(cold.cache_hits, 0u);
  EXPECT_EQ(cold.cache_misses, cold.procedures.size());
  for (const ProcedureResult& r : cold.procedures) EXPECT_FALSE(r.from_cache);

  EpochAnalysis warm = AnalysisEngine(options).AnalyzeAll({InputFor(f)}, config);
  EXPECT_EQ(warm.cache_hits, warm.procedures.size());
  EXPECT_EQ(warm.cache_misses, 0u);
  for (const ProcedureResult& r : warm.procedures) EXPECT_TRUE(r.from_cache);
  EXPECT_EQ(ResultBytes(cold), ResultBytes(warm));
}

// The fingerprint names every cache slot, so a result cache written by an
// earlier build keeps hitting exactly while these values hold. Editing a
// machine or tuning constant must change them, and every slot name, on
// purpose.
TEST(Engine, ConfigFingerprintIsPinned) {
  AnalysisConfig checked;
  checked.selfcheck = true;
  EXPECT_EQ(ConfigFingerprint(AnalysisConfig()), 0x5c3f11eb66e4298bull);
  EXPECT_EQ(ConfigFingerprint(checked), 0x5c3f10eb66e427d8ull);
}

TEST(Engine, CacheMissesWhenImageProfileOrConfigChanges) {
  Fixture f = MakeFixture();
  AnalysisConfig config;
  EngineOptions options;
  ScratchDir scratch;
  options.cache_dir = scratch.path() + "/cache";
  AnalysisEngine(options).AnalyzeAll({InputFor(f)}, config);  // populate

  // Image content change: bump one addq literal (1 -> 9).
  Fixture changed_image = MakeFixture();
  for (size_t i = 0; i < changed_image.image->num_instructions(); ++i) {
    auto inst = Decode(changed_image.image->text()[i]);
    if (inst && inst->op == Opcode::kAddq && inst->has_literal &&
        inst->literal == 1) {
      inst->literal = 9;
      changed_image.image->SetInstruction(i, Encode(*inst));
      break;
    }
  }
  ASSERT_NE(ImageContentCrc(*f.image), ImageContentCrc(*changed_image.image));
  EpochAnalysis after_image =
      AnalysisEngine(options).AnalyzeAll({InputFor(changed_image)}, config);
  EXPECT_EQ(after_image.cache_hits, 0u);

  // Profile change: one extra sample.
  Fixture changed_profile = MakeFixture();
  changed_profile.cycles.AddSamples(0, 1);
  ASSERT_NE(ProfileSetCrc(InputFor(f)), ProfileSetCrc(InputFor(changed_profile)));
  EpochAnalysis after_profile =
      AnalysisEngine(options).AnalyzeAll({InputFor(changed_profile)}, config);
  EXPECT_EQ(after_profile.cache_hits, 0u);

  // Config change: the selfcheck flag is part of the fingerprint, so
  // checked and unchecked runs never share entries.
  AnalysisConfig changed_config;
  changed_config.selfcheck = true;
  ASSERT_NE(ConfigFingerprint(config), ConfigFingerprint(changed_config));
  EpochAnalysis after_config =
      AnalysisEngine(options).AnalyzeAll({InputFor(f)}, changed_config);
  EXPECT_EQ(after_config.cache_hits, 0u);

  // A slot holds the last inputs stored for its procedure. The profile
  // step stored diamond's changed slice, and straight's original one
  // (its samples did not change), so the original inputs hit straight
  // and miss diamond once.
  EpochAnalysis warm = AnalysisEngine(options).AnalyzeAll({InputFor(f)}, config);
  EXPECT_EQ(warm.cache_hits, 1u);
  EXPECT_EQ(warm.cache_misses, 1u);
  for (const ProcedureResult& r : warm.procedures) {
    EXPECT_EQ(r.from_cache, r.proc.name == "straight") << r.proc.name;
  }
}

TEST(Engine, SamplesOutsideAProcedureLeaveItsEntryHitting) {
  Fixture f = MakeFixture();
  AnalysisConfig config;
  EngineOptions options;
  ScratchDir scratch;
  options.cache_dir = scratch.path() + "/cache";
  AnalysisEngine(options).AnalyzeAll({InputFor(f)}, config);  // populate
  const uint64_t diamond =
      f.image->PcToOffset(f.image->FindProcedureByName("diamond")->start);

  // New samples inside diamond: only diamond re-analyzes.
  f.cycles.AddSamples(diamond + kInstrBytes, 4);
  EpochAnalysis grown = AnalysisEngine(options).AnalyzeAll({InputFor(f)}, config);
  EXPECT_EQ(grown.cache_hits, 1u);
  EXPECT_EQ(grown.cache_misses, 1u);
  for (const ProcedureResult& r : grown.procedures) {
    EXPECT_EQ(r.from_cache, r.proc.name == "straight") << r.proc.name;
  }
  EXPECT_EQ(ResultBytes(grown),
            ResultBytes(AnalysisEngine().AnalyzeAll({InputFor(f)}, config)));
  // The miss replaced diamond's entry in its slot.
  EXPECT_EQ(PacFiles(options.cache_dir), f.image->procedures().size());

  // An offset off the instruction grid names no instruction: the analysis
  // never sees it, so nothing re-analyzes.
  f.cycles.AddSamples(diamond + 1, 9);
  EpochAnalysis off_grid = AnalysisEngine(options).AnalyzeAll({InputFor(f)}, config);
  EXPECT_EQ(off_grid.cache_hits, off_grid.procedures.size());

  // A present but empty IMISS profile analyzes differently from a missing
  // one, so it misses every procedure.
  ImageProfile imiss("t", EventType::kImiss, 100.0);
  AnalysisInput with_imiss = InputFor(f);
  with_imiss.imiss = &imiss;
  EpochAnalysis presence = AnalysisEngine(options).AnalyzeAll({with_imiss}, config);
  EXPECT_EQ(presence.cache_misses, presence.procedures.size());
  EXPECT_EQ(ResultBytes(presence),
            ResultBytes(AnalysisEngine().AnalyzeAll({with_imiss}, config)));
  EXPECT_EQ(PacFiles(options.cache_dir), f.image->procedures().size());
}

TEST(Engine, AForeignEntryAtASlotIsReplacedNotServed) {
  Fixture f = MakeFixture();
  AnalysisConfig config;
  EngineOptions options;
  ScratchDir scratch;
  options.cache_dir = scratch.path() + "/cache";
  EpochAnalysis cold = AnalysisEngine(options).AnalyzeAll({InputFor(f)}, config);
  auto slot = [&](const char* proc) {
    return CacheEntryPath(options.cache_dir, f.image->name(), ConfigFingerprint(config),
                          *f.image->FindProcedureByName(proc));
  };
  // Two procedures whose slot names collided would find each other's
  // entry: put diamond's entry in straight's slot.
  ASSERT_TRUE(std::filesystem::exists(slot("diamond")));
  ASSERT_TRUE(std::filesystem::copy_file(
      slot("diamond"), slot("straight"),
      std::filesystem::copy_options::overwrite_existing));

  EpochAnalysis rerun = AnalysisEngine(options).AnalyzeAll({InputFor(f)}, config);
  EXPECT_EQ(rerun.cache_hits, 1u);
  EXPECT_EQ(rerun.cache_misses, 1u);
  for (const ProcedureResult& r : rerun.procedures) {
    EXPECT_EQ(r.from_cache, r.proc.name == "diamond") << r.proc.name;
  }
  EXPECT_EQ(ResultBytes(rerun), ResultBytes(cold));
  // The recompute replaced the foreign entry, so the next run hits both.
  EXPECT_NE(FileBytes(slot("straight")), FileBytes(slot("diamond")));
  EpochAnalysis warm = AnalysisEngine(options).AnalyzeAll({InputFor(f)}, config);
  EXPECT_EQ(warm.cache_hits, warm.procedures.size());
  EXPECT_EQ(ResultBytes(warm), ResultBytes(cold));

  // A directory at a slot is a plain miss too (and blocks the store).
  ASSERT_TRUE(std::filesystem::remove(slot("straight")));
  ASSERT_TRUE(std::filesystem::create_directory(slot("straight")));
  EpochAnalysis blocked = AnalysisEngine(options).AnalyzeAll({InputFor(f)}, config);
  EXPECT_EQ(blocked.cache_misses, 1u);
  EXPECT_EQ(ResultBytes(blocked), ResultBytes(cold));
}

TEST(Engine, CorruptCacheEntriesAreIgnoredAndRecomputed) {
  Fixture f = MakeFixture();
  AnalysisConfig config;
  EngineOptions options;
  ScratchDir scratch;
  options.cache_dir = scratch.path() + "/cache";
  EpochAnalysis cold = AnalysisEngine(options).AnalyzeAll({InputFor(f)}, config);
  std::vector<std::vector<uint8_t>> want = ResultBytes(cold);

  // Flip a byte in the middle of every cache entry.
  size_t corrupted = 0;
  for (const auto& entry : std::filesystem::directory_iterator(options.cache_dir)) {
    std::fstream file(entry.path(), std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.good());
    auto size = std::filesystem::file_size(entry.path());
    file.seekp(static_cast<std::streamoff>(size / 2));
    char byte = 0;
    file.seekg(static_cast<std::streamoff>(size / 2));
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0xff);
    file.seekp(static_cast<std::streamoff>(size / 2));
    file.write(&byte, 1);
    ++corrupted;
  }
  ASSERT_EQ(corrupted, cold.procedures.size());

  EpochAnalysis rerun = AnalysisEngine(options).AnalyzeAll({InputFor(f)}, config);
  EXPECT_EQ(rerun.cache_hits, 0u);
  EXPECT_EQ(rerun.cache_misses, rerun.procedures.size());
  EXPECT_EQ(ResultBytes(rerun), want);

  // The recompute rewrote the entries, so a third run hits again.
  EpochAnalysis warm = AnalysisEngine(options).AnalyzeAll({InputFor(f)}, config);
  EXPECT_EQ(warm.cache_hits, warm.procedures.size());
}

TEST(Engine, AnalyzeOneUsesTheSameCacheAsAnalyzeAll) {
  Fixture f = MakeFixture();
  AnalysisConfig config;
  EngineOptions options;
  ScratchDir scratch;
  options.cache_dir = scratch.path() + "/cache";
  AnalysisEngine engine(options);
  const ProcedureSymbol* proc = f.image->FindProcedureByName("diamond");
  ProcedureResult first = engine.AnalyzeOne(InputFor(f), *proc, config);
  ASSERT_TRUE(first.status.ok());
  EXPECT_FALSE(first.from_cache);
  ProcedureResult second = engine.AnalyzeOne(InputFor(f), *proc, config);
  ASSERT_TRUE(second.status.ok());
  EXPECT_TRUE(second.from_cache);
  EXPECT_EQ(SerializeProcedureAnalysis(first.analysis),
            SerializeProcedureAnalysis(second.analysis));
}

TEST(Engine, MissingCyclesProfileYieldsErrorResult) {
  Fixture f = MakeFixture();
  AnalysisInput input;
  input.image = f.image;  // no cycles profile
  AnalysisConfig config;
  EpochAnalysis epoch = AnalysisEngine().AnalyzeAll({input}, config);
  ASSERT_EQ(epoch.procedures.size(), f.image->procedures().size());
  for (const ProcedureResult& r : epoch.procedures) {
    EXPECT_FALSE(r.status.ok());
  }
}

}  // namespace
}  // namespace dcpi
