// Exit-code contract for the CLI tools: 0 on success, 1 on analysis or
// database failure, 2 on usage errors. Exercised by exec'ing the real
// binaries (DCPI_BIN_DIR is injected by CMake) against a missing database
// and against a multi-epoch database written by dcpi_sim --continuous.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "tests/scratch_dir.h"

namespace dcpi {
namespace {

// Runs a tool from the build's binary directory and returns its exit code
// (-1 if it did not exit normally). Output is discarded.
int RunTool(const std::string& args) {
  std::string command =
      std::string(DCPI_BIN_DIR) + "/" + args + " > /dev/null 2>&1";
  int status = std::system(command.c_str());
  if (status == -1 || !WIFEXITED(status)) return -1;
  return WEXITSTATUS(status);
}

class CliExitTest : public ::testing::Test {
 protected:
  ScratchDir scratch_;
  const std::string root_ = scratch_.path();
};

TEST_F(CliExitTest, UsageErrorsExitTwo) {
  EXPECT_EQ(RunTool("dcpiprof"), 2);
  EXPECT_EQ(RunTool("dcpicalc"), 2);
  EXPECT_EQ(RunTool("dcpistats"), 2);
  EXPECT_EQ(RunTool("dcpidiff"), 2);
  EXPECT_EQ(RunTool("dcpicheck"), 2);
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
  // Memory-sampling tools and flags follow the same contract.
  EXPECT_EQ(RunTool("dcpimem"), 2);
  EXPECT_EQ(RunTool("dcpiannotate"), 2);
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

TEST_F(CliExitTest, MissingInputsExitOne) {
  // A database that does not exist resolves no epochs; a nonexistent image
  // file fails the load. Both are data failures, not usage errors.
  const std::string missing = root_ + "/missing.img";
  const std::string db = root_ + "/db";
  EXPECT_EQ(RunTool("dcpiprof " + db + " " + missing), 1);
  EXPECT_EQ(RunTool("dcpicalc " + db + " " + missing + " main"), 1);
  EXPECT_EQ(RunTool("dcpidiff " + db + " 0 1 " + missing), 1);
  EXPECT_EQ(RunTool("dcpistats " + db + " " + missing), 1);
  EXPECT_EQ(RunTool("dcpicheck " + db + " " + missing), 1);
  EXPECT_EQ(RunTool("dcpimem " + db + " " + missing), 1);
  EXPECT_EQ(RunTool("dcpiannotate " + db + " " + missing + " " + missing), 1);
}

TEST_F(CliExitTest, ContinuousPipelineExitsZeroAndEmptyEpochsExitOne) {
  // End to end: a short continuous run (three sealed epochs), then every
  // reader over the database it wrote — and over epochs with no profiles.
  ASSERT_EQ(RunTool("dcpi_sim --continuous --epochs 3 copy " + root_ +
                    " cycles 0.25"),
            0);
  const std::string db = root_ + "/db";
  std::string all_images;  // every serialized image, order-independent
  std::string image;       // any one of them
  for (const auto& entry :
       std::filesystem::directory_iterator(root_ + "/images")) {
    image = entry.path().string();
    all_images += " " + image;
  }
  ASSERT_FALSE(image.empty());

  // Defaults (latest sealed epoch) and explicit epoch selection succeed.
  EXPECT_EQ(RunTool("dcpiprof " + db + all_images), 0);
  EXPECT_EQ(RunTool("dcpiprof --all-epochs " + db + all_images), 0);
  EXPECT_EQ(RunTool("dcpiprof -i --epoch 0 --epoch 1 " + db + all_images), 0);
  EXPECT_EQ(RunTool("dcpiprof --epoch 001 " + db + all_images), 0);  // padded value
  EXPECT_EQ(RunTool("dcpistats " + db + all_images), 0);
  EXPECT_EQ(RunTool("dcpicheck --all-epochs " + db + all_images), 0);
  EXPECT_EQ(RunTool("dcpidiff " + db + " 0 1" + all_images), 0);

  // An image path that names a directory fails its load.
  EXPECT_EQ(RunTool("dcpicheck " + db + " " + root_ + "/images"), 1);
  EXPECT_EQ(RunTool("dcpiprof " + db + " " + root_ + "/images"), 1);

  // An epoch with no profiles is a failure, not an empty report.
  EXPECT_EQ(RunTool("dcpiprof --epoch 9999 " + db + " " + image), 1);
  EXPECT_EQ(RunTool("dcpidiff " + db + " 9999 9998 " + image), 1);
  EXPECT_EQ(RunTool("dcpicalc --epoch 9999 " + db + " " + image +
                    " no_such_proc"),
            1);
  // dcpicheck warns about an epoch without profiles. A reader creates no
  // epoch directory: one would move the epoch a writer resumes at.
  EXPECT_EQ(RunTool("dcpicheck --epoch 9999 " + db + all_images), 0);
  EXPECT_FALSE(std::filesystem::exists(db + "/epoch_9999"));
  // dcpistats compares sample sets; one epoch is not enough.
  EXPECT_EQ(RunTool("dcpistats --epoch 0 " + db + " " + image), 1);

  // The annotated source need not match the image: unmatched lines simply
  // get blank sample columns, and the tool still renders the report.
  const std::string source = root_ + "/probe.s";
  {
    std::ofstream out(source);
    out << "        .text\n        .proc probe\n        halt\n        .endp\n";
  }
  EXPECT_EQ(RunTool("dcpiannotate " + db + " " + image + " " + source), 0);
  EXPECT_EQ(RunTool("dcpiannotate --epoch 9999 " + db + " " + image + " " +
                    source),
            1);
  EXPECT_EQ(RunTool("dcpiannotate " + db + " " + image + " " + root_ +
                    "/no_such_source.s"),
            1);

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
  std::string all_images;
  for (const auto& entry :
       std::filesystem::directory_iterator(root_ + "/images")) {
    all_images += ' ';
    all_images += entry.path().string();
  }
  ASSERT_FALSE(all_images.empty());
  ASSERT_TRUE(std::filesystem::exists(fleet + "/host_0"));
  ASSERT_TRUE(std::filesystem::exists(fleet + "/host_1"));

  // A host with none of the requested epochs gets its image lint and a
  // warning; nothing is analyzed, so no result cache appears.
  EXPECT_EQ(RunTool("dcpicheck --fleet --epoch 9999 " + fleet + all_images), 0);
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
  const std::string source = root_ + "/probe.s";
  {
    std::ofstream out(source);
    out << "        .text\n        .proc probe\n        halt\n        .endp\n";
  }
  EXPECT_EQ(RunTool("dcpiannotate --fleet " + fleet + " " + app_image + " " +
                    source),
            0);

  // The compacted merge is a regular database the plain tools can read.
  ASSERT_TRUE(std::filesystem::exists(fleet + "/merged"));
  EXPECT_EQ(RunTool("dcpiprof --all-epochs " + fleet + "/merged" + all_images), 0);
  EXPECT_EQ(RunTool("dcpistats " + fleet + "/merged" + all_images), 0);
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
  const size_t checked = entries();
  ASSERT_GT(checked, 0u);
  EXPECT_EQ(RunTool("dcpicalc --selfcheck --epoch 0 " + db + " " + image +
                    " mccalpin_copy"),
            0);
  EXPECT_EQ(entries(), checked);
}

}  // namespace
}  // namespace dcpi
