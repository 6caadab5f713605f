// Exit-code contract for the CLI tools: 0 on success, 1 on analysis or
// database failure, 2 on usage errors. Exercised by exec'ing the real
// binaries (DCPI_BIN_DIR is injected by CMake) against a missing database
// and against databases written by dcpi_sim. The reader tools' listings
// are pinned too: ReaderStdoutDigests compares a digest of each one's
// stdout with a recorded value.

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "src/support/fnv1a.h"
#include "tests/scratch_dir.h"

namespace dcpi {
namespace {

// Runs a tool from the build's binary directory and returns its exit code
// (-1 if it did not exit normally). Stderr is discarded; stdout is
// captured into `out` when it is not null, and discarded otherwise.
int RunTool(const std::string& args, std::string* out = nullptr) {
  std::string command = std::string(DCPI_BIN_DIR) + "/" + args + " 2>/dev/null";
  if (out == nullptr) command += " >/dev/null";
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return -1;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0) {
    if (out != nullptr) out->append(buf, n);
  }
  int status = pclose(pipe);
  if (status == -1 || !WIFEXITED(status)) return -1;
  return WEXITSTATUS(status);
}

// The serialized images dcpi_sim wrote under `root`/images, sorted:
// directory order is unspecified.
std::vector<std::string> SortedImages(const std::string& root) {
  std::vector<std::string> images;
  for (const auto& entry : std::filesystem::directory_iterator(root + "/images")) {
    images.push_back(entry.path().string());
  }
  std::sort(images.begin(), images.end());
  return images;
}

std::string Joined(const std::vector<std::string>& paths) {
  std::string joined;
  for (const std::string& path : paths) joined += " " + path;
  return joined;
}

// Writes an assembly source for dcpiannotate. It need not match the
// image: unmatched lines get blank sample columns, and the tool still
// renders the report.
std::string WriteProbeSource(const std::string& root) {
  const std::string source = root + "/probe.s";
  std::ofstream out(source);
  out << "        .text\n        .proc probe\n        halt\n        .endp\n";
  return source;
}

// Replaces every occurrence of `from` in `text` with `to`.
std::string ReplaceAll(std::string text, const std::string& from, const std::string& to) {
  for (size_t at = text.find(from); at != std::string::npos;
       at = text.find(from, at + to.size())) {
    text.replace(at, from.size(), to);
  }
  return text;
}

class CliExitTest : public ::testing::Test {
 protected:
  ScratchDir scratch_;
  const std::string root_ = scratch_.path();
};

TEST_F(CliExitTest, UsageErrorsExitTwo) {
  EXPECT_EQ(RunTool("dcpi_sim"), 2);
  EXPECT_EQ(RunTool("dcpi_sim no_such_workload " + root_), 2);
  EXPECT_EQ(RunTool("dcpi_sim --epochs 0 copy " + root_), 2);
  EXPECT_EQ(RunTool("dcpicalc --bogus-flag a b c"), 2);
  // Malformed shared flags are usage errors in every reader tool.
  EXPECT_EQ(RunTool("dcpiprof --epoch nope db img"), 2);
  EXPECT_EQ(RunTool("dcpistats --jobs -3 db img"), 2);
  // --jobs must fit an int: cast to one, a larger value would go negative,
  // which means hardware concurrency. The database is missing, so no
  // worker starts.
  EXPECT_EQ(RunTool("dcpicheck --jobs 4294967296 " + root_ + "/missing img"), 2);
  EXPECT_EQ(RunTool("dcpicheck --jobs 4294967295 " + root_ + "/missing img"), 2);
  EXPECT_EQ(RunTool("dcpicheck --jobs 2147483648 " + root_ + "/missing img"), 2);
  // Strict numeric parsing: half-numeric and negative values are rejected
  // everywhere, not silently truncated by atoi.
  EXPECT_EQ(RunTool("dcpidiff db 0x 1 img"), 2);
  EXPECT_EQ(RunTool("dcpidiff db 0 -1 img"), 2);
  EXPECT_EQ(RunTool("dcpi_sim --epochs 2x copy " + root_), 2);
  EXPECT_EQ(RunTool("dcpi_sim --quanta nope copy " + root_), 2);
  EXPECT_EQ(RunTool("dcpi_sim --fleet 0 copy " + root_), 2);
  EXPECT_EQ(RunTool("dcpi_sim --fleet x copy " + root_), 2);
  EXPECT_EQ(RunTool("dcpi_sim copy " + root_ + " cycles -0.5"), 2);
  EXPECT_EQ(RunTool("dcpi_sim copy " + root_ + " cycles 0.25 4x"), 2);
  // --compact only makes sense for a fleet run.
  EXPECT_EQ(RunTool("dcpi_sim --compact copy " + root_), 2);
  // Memory-sampling tools and flags follow the same contract, and --top is
  // checked before the (missing) database is opened.
  EXPECT_EQ(RunTool("dcpimem --top 0 db img"), 2);
  EXPECT_EQ(RunTool("dcpimem --top nope db img"), 2);
  EXPECT_EQ(RunTool("dcpimem --bogus-flag db img"), 2);
  EXPECT_EQ(RunTool("dcpiannotate --bogus-flag db img src"), 2);
  // dcpidiff's two epochs are positional; the shared epoch-set flags would
  // silently contradict them and are rejected.
  EXPECT_EQ(RunTool("dcpidiff --epoch 1 db 0 1 img"), 2);
  EXPECT_EQ(RunTool("dcpidiff --all-epochs db 0 1 img"), 2);
  // --mem-fraction is a probability: [0, 1], strictly parsed.
  EXPECT_EQ(RunTool("dcpi_sim --mem-fraction 1.5 copy " + root_), 2);
  EXPECT_EQ(RunTool("dcpi_sim --mem-fraction -0.25 copy " + root_), 2);
  EXPECT_EQ(RunTool("dcpi_sim --mem-fraction nope copy " + root_), 2);
  // Only finite numbers parse: NaN passes no range check, and a scale of
  // inf would make the workload's iteration count undefined.
  EXPECT_EQ(RunTool("dcpi_sim --mem-fraction nan copy " + root_), 2);
  EXPECT_EQ(RunTool("dcpi_sim copy " + root_ + " cycles inf"), 2);
  EXPECT_EQ(RunTool("dcpi_sim copy " + root_ + " cycles nan"), 2);
  // A finite scale whose iteration count does not fit the `li` that
  // loads it is a usage error too, reported before anything is written:
  // copy's 4 base iterations scale to 2147483644 here, past kMaxLiValue
  // though within 32 bits.
  EXPECT_EQ(RunTool("dcpi_sim copy " + root_ + "/big cycles 536870911"), 2);
  EXPECT_EQ(RunTool("dcpi_sim copy " + root_ + "/big cycles 1e10"), 2);
  EXPECT_EQ(RunTool("dcpi_sim copy " + root_ + "/big cycles 1e300"), 2);
  EXPECT_FALSE(std::filesystem::exists(root_ + "/big"));
}

TEST_F(CliExitTest, ReaderExitContract) {
  // Every reader over one continuous run with wide records (so dcpimem has
  // data), in each of the contract's cases.
  ASSERT_EQ(RunTool("dcpi_sim --continuous --epochs 3 --mem-fraction 0.25 copy " +
                    root_ + " cycles 0.25"),
            0);
  const std::string db = root_ + "/db";
  const std::string images = Joined(SortedImages(root_));
  const std::string app = root_ + "/images/image_1.img";  // image_0 is the kernel
  const std::string source = WriteProbeSource(root_);

  // Each reader's arguments, with {db}, {imgs} (every image), {img} (the
  // application image), {src}, {epochs} (a selection before the database)
  // and {diff} (dcpidiff's two positional epochs) to fill in.
  struct Reader {
    const char* name;
    const char* args;
    bool has_cache;
  };
  const Reader readers[] = {
      {"dcpiprof", "{epochs} {db}{imgs}", false},
      {"dcpistats", "{epochs} {db}{imgs}", false},
      {"dcpicalc", "{epochs} {db} {img} mccalpin_copy", true},
      {"dcpicheck", "{epochs} {db}{imgs}", true},
      {"dcpidiff", "{db} {diff}{imgs}", false},
      {"dcpimem", "{epochs} {db}{imgs}", false},
      {"dcpiannotate", "{epochs} {db} {img} {src}", false},
  };
  struct Case {
    const char* what;
    std::string db, imgs, img, epochs, diff;
    int exit;
  };
  const Case cases[] = {
      {"ok", db, images, app, "", "0 1", 0},
      {"missing database", root_ + "/missing", images, app, "", "0 1", 1},
      // dcpistats needs two epochs, so two absent ones reach its
      // no-profile rule rather than its two-epoch rule.
      {"epoch without profiles", db, images, app, "--epoch 9998 --epoch 9999", "9998 9999",
       1},
      {"directory as image", db, " " + root_ + "/images", root_ + "/images", "", "0 1", 1},
  };
  for (const Reader& reader : readers) {
    SCOPED_TRACE(reader.name);
    EXPECT_EQ(RunTool(reader.name), 2) << "usage error";
    for (const Case& c : cases) {
      std::string args = reader.args;
      args = ReplaceAll(args, "{epochs}", c.epochs);
      args = ReplaceAll(args, "{db}", c.db);
      args = ReplaceAll(args, "{imgs}", c.imgs);
      args = ReplaceAll(args, "{img}", c.img);
      args = ReplaceAll(args, "{src}", source);
      args = ReplaceAll(args, "{diff}", c.diff);
      EXPECT_EQ(RunTool(std::string(reader.name) + " " + args), c.exit) << c.what << ": " << args;
      // Only the tools with an analysis cache take --no-cache; the rest
      // reject it as an unknown flag.
      if (c.exit == 0) {
        EXPECT_EQ(RunTool(std::string(reader.name) + " --no-cache " + args),
                  reader.has_cache ? 0 : 2)
            << "--no-cache";
      }
    }
  }
  // A reader creates no epoch directory: one would move the epoch a writer
  // resumes at.
  EXPECT_FALSE(std::filesystem::exists(db + "/epoch_9998"));
  EXPECT_FALSE(std::filesystem::exists(db + "/epoch_9999"));
}

TEST_F(CliExitTest, ContinuousPipelineExitsZeroAndEmptyEpochsExitOne) {
  // End to end: a short continuous run (three sealed epochs), then the
  // readers' epoch selections and per-tool failure cases over the database
  // it wrote (ReaderExitContract covers the cases every reader shares).
  ASSERT_EQ(RunTool("dcpi_sim --continuous --epochs 3 copy " + root_ +
                    " cycles 0.25"),
            0);
  const std::string db = root_ + "/db";
  const std::vector<std::string> images = SortedImages(root_);
  ASSERT_FALSE(images.empty());
  const std::string all_images = Joined(images);
  const std::string& image = images.back();

  // Explicit epoch selection succeeds.
  EXPECT_EQ(RunTool("dcpiprof --all-epochs " + db + all_images), 0);
  EXPECT_EQ(RunTool("dcpiprof -i --epoch 0 --epoch 1 " + db + all_images), 0);
  EXPECT_EQ(RunTool("dcpiprof --epoch 001 " + db + all_images), 0);  // padded value
  EXPECT_EQ(RunTool("dcpicheck --all-epochs " + db + all_images), 0);

  // A procedure the image does not have is a failure.
  EXPECT_EQ(RunTool("dcpicalc --epoch 9999 " + db + " " + image +
                    " no_such_proc"),
            1);
  // A gap beside an analyzed epoch stays a warning.
  EXPECT_EQ(RunTool("dcpicheck --epoch 0 --epoch 9999 " + db + all_images), 0);
  // dcpistats compares sample sets; one epoch is not enough.
  EXPECT_EQ(RunTool("dcpistats --epoch 0 " + db + " " + image), 1);

  const std::string source = WriteProbeSource(root_);
  EXPECT_EQ(RunTool("dcpiannotate " + db + " " + image + " " + root_ +
                    "/no_such_source.s"),
            1);
  // A directory is no source file either (it opens for reading).
  EXPECT_EQ(RunTool("dcpiannotate " + db + " " + image + " " + root_ + "/images"), 1);

  // This run collected no wide records (--mem-fraction defaults to 0), so
  // memory-centric analysis is a data failure, not an empty report.
  EXPECT_EQ(RunTool("dcpimem " + db + " " + image), 1);

  // --fleet against a plain (non-sharded) database is a data failure.
  EXPECT_EQ(RunTool("dcpiprof --fleet " + db + " " + image), 1);
  EXPECT_EQ(RunTool("dcpistats --fleet " + db + " " + image), 1);
  EXPECT_EQ(RunTool("dcpicalc --fleet " + db + " " + image + " main"), 1);
  EXPECT_EQ(RunTool("dcpidiff --fleet " + db + " 0 1 " + image), 1);
  EXPECT_EQ(RunTool("dcpiannotate --fleet " + db + " " + image + " " + source), 1);
  EXPECT_EQ(RunTool("dcpimem --fleet " + db + " " + image), 1);
}

TEST_F(CliExitTest, FleetPipelineExitsZero) {
  // End to end at fleet scale: two hosts collected concurrently with
  // background compaction, then every --fleet reader over the shard root,
  // and the plain readers over the compacted merge.
  ASSERT_EQ(RunTool("dcpi_sim --fleet 2 --compact --continuous --epochs 2 "
                    "--mem-fraction 0.5 copy " + root_ + " cycles 0.25"),
            0);
  const std::string fleet = root_ + "/db";
  const std::string all_images = Joined(SortedImages(root_));
  ASSERT_FALSE(all_images.empty());
  ASSERT_TRUE(std::filesystem::exists(fleet + "/host_0"));
  ASSERT_TRUE(std::filesystem::exists(fleet + "/host_1"));

  // A host with none of the requested epochs gets its image lint and a
  // warning; nothing is analyzed, so no result cache appears, and a check
  // that analyzed nothing on any host fails.
  EXPECT_EQ(RunTool("dcpicheck --fleet --epoch 9999 " + fleet + all_images), 1);
  for (const auto& entry : std::filesystem::recursive_directory_iterator(fleet)) {
    EXPECT_NE(entry.path().filename(), ".cache") << entry.path();
  }

  EXPECT_EQ(RunTool("dcpiprof --fleet " + fleet + all_images), 0);
  EXPECT_EQ(RunTool("dcpiprof --fleet --all-epochs " + fleet + all_images), 0);
  EXPECT_EQ(RunTool("dcpiprof --fleet -i " + fleet + all_images), 0);
  EXPECT_EQ(RunTool("dcpistats --fleet " + fleet + all_images), 0);
  EXPECT_EQ(RunTool("dcpicheck --fleet --all-epochs " + fleet + all_images), 0);

  // The whole reader family speaks --fleet: image_1 is the application
  // image (image_0 is the kernel), and the run above collected wide
  // records, so the memory tool has fleet-wide data-line profiles to show.
  const std::string app_image = root_ + "/images/image_1.img";
  EXPECT_EQ(RunTool("dcpidiff --fleet " + fleet + " 0 1 " + app_image), 0);
  EXPECT_EQ(RunTool("dcpicalc --fleet " + fleet + " " + app_image +
                    " mccalpin_copy"),
            0);
  EXPECT_EQ(RunTool("dcpimem --fleet --all-epochs " + fleet + " " + app_image),
            0);
  const std::string source = WriteProbeSource(root_);
  EXPECT_EQ(RunTool("dcpiannotate --fleet " + fleet + " " + app_image + " " +
                    source),
            0);

  // The compacted merge is a regular database the plain tools can read.
  ASSERT_TRUE(std::filesystem::exists(fleet + "/merged"));
  EXPECT_EQ(RunTool("dcpiprof --all-epochs " + fleet + "/merged" + all_images), 0);
  EXPECT_EQ(RunTool("dcpistats " + fleet + "/merged" + all_images), 0);
}

TEST_F(CliExitTest, ReaderStdoutDigests) {
  // The readers' listings, pinned: an FNV-1a digest of each one's stdout
  // (with the scratch root replaced by a token) against the value recorded
  // when the tools last changed on purpose, once at the default --jobs and
  // once at --jobs 1, which must print the same bytes. The fleet run's
  // host_0 shard is a plain database and merged/ its compaction, so one
  // collection covers plain, --fleet and merged reads. A listing that
  // changes on purpose needs its digest re-recorded here.
  ASSERT_EQ(RunTool("dcpi_sim --fleet 2 --compact --continuous --epochs 2 "
                    "--mem-fraction 0.5 copy " + root_ + " cycles 0.25"),
            0);
  const std::string plain = root_ + "/db/host_0";
  const std::string fleet = "--fleet " + root_ + "/db";
  const std::string merged = root_ + "/db/merged";
  const std::string images = Joined(SortedImages(root_));
  const std::string app = " " + root_ + "/images/image_1.img";
  const std::string source = " " + WriteProbeSource(root_);
  struct Row {
    std::string tool, flags, args;
    uint64_t digest;
  };
  const Row rows[] = {
      {"dcpiprof", "", plain + images, 0x9a2330db9bff4bad},
      {"dcpiprof", "-i", plain + images, 0xd413c5ad67fbb723},
      {"dcpiprof", "--all-epochs", plain + images, 0xe74cc5e39d7adfb2},
      {"dcpiprof", "", fleet + images, 0x853747b5e6a46f7d},
      {"dcpiprof", "-i", fleet + images, 0x989aa9bc36b69886},
      {"dcpistats", "", plain + images, 0x8fc0d9f83db6ba39},
      {"dcpistats", "", fleet + images, 0x60bf115130d606d1},
      {"dcpistats", "", merged + images, 0xade134a1674b7046},
      {"dcpicalc", "", plain + app + " mccalpin_copy", 0x881a5e576b729345},
      {"dcpicalc", "-s", plain + app + " mccalpin_copy", 0xa21027c215057e46},
      {"dcpicalc", "", fleet + app + " mccalpin_copy", 0xaf9fe689847209db},
      {"dcpicheck", "", plain + images, 0x98942edcfd1b5dcb},
      {"dcpicheck", "--all-epochs", plain + images, 0x98942edcfd1b5dcb},
      {"dcpicheck", "", fleet + images, 0x6879d23e2c22550d},
      {"dcpidiff", "", plain + " 0 1" + images, 0x16856f3b1cbea521},
      {"dcpidiff", "", plain + " 1 0" + images, 0xb55aba6062193c21},
      {"dcpidiff", "", plain + " 0 0" + images, 0xab198fa35cda7100},
      {"dcpidiff", "", fleet + " 0 1" + images, 0xafe015812c2c323f},
      {"dcpimem", "", fleet + images, 0x28c0f016406f9602},
      {"dcpiannotate", "", plain + app + source, 0x40dd52f04612ad87},
  };
  for (const Row& row : rows) {
    for (const char* jobs : {"", "--jobs 1 "}) {
      const std::string command = row.tool + " " + jobs + row.flags + " " + row.args;
      std::string out;
      ASSERT_EQ(RunTool(command, &out), 0) << command;
      Fnv1a64 digest;
      digest.Str(ReplaceAll(out, root_, "<root>"));
      char hex[24];
      std::snprintf(hex, sizeof(hex), "0x%016" PRIx64, digest.value());
      EXPECT_EQ(digest.value(), row.digest) << command << "\n  digest " << hex;
    }
  }
}

TEST_F(CliExitTest, DcpicalcAnalyzesWhatDcpicheckAnalyzes) {
  // A mux run records DMISS and BRANCHMP profiles next to CYCLES. dcpicalc
  // reads every event profile dcpicheck reads, so with --selfcheck it finds
  // dcpicheck's cache entry for the procedure instead of writing its own.
  ASSERT_EQ(RunTool("dcpi_sim copy " + root_ + " mux 0.25"), 0);
  const std::string db = root_ + "/db";
  const std::string image = root_ + "/images/image_1.img";
  auto entries = [&] {
    size_t n = 0;
    for (const auto& entry :
         std::filesystem::directory_iterator(db + "/epoch_0/.cache")) {
      n += entry.path().extension() == ".pac";
    }
    return n;
  };
  ASSERT_EQ(RunTool("dcpicheck --epoch 0 " + db + " " + image), 0);
  // A batch run writes epoch 0 alone: checking epoch 1 analyzes nothing.
  EXPECT_EQ(RunTool("dcpicheck --epoch 1 " + db + " " + image), 1);
  const size_t checked = entries();
  ASSERT_GT(checked, 0u);
  EXPECT_EQ(RunTool("dcpicalc --selfcheck --epoch 0 " + db + " " + image +
                    " mccalpin_copy"),
            0);
  EXPECT_EQ(entries(), checked);
}

}  // namespace
}  // namespace dcpi
