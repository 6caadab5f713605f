// A private scratch directory for one test.
//
// ctest runs every discovered gtest case as its own process, in parallel
// under -j, so a fixed path shared by two cases lets one case's setup
// delete the other's files mid-run. ScratchDir makes a fresh directory with
// mkdtemp under $TMPDIR (default /tmp). On destruction it removes the
// directory if the current test passed, and keeps it, printing its path,
// if the test failed, so the files can be inspected. As a fixture member it
// is destroyed after TearDown, once the test's outcome is final.

#ifndef TESTS_SCRATCH_DIR_H_
#define TESTS_SCRATCH_DIR_H_

#include <gtest/gtest.h>
#include <stdlib.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

namespace dcpi {

class ScratchDir {
 public:
  ScratchDir() {
    const char* tmp = std::getenv("TMPDIR");
    std::string pattern = (tmp != nullptr && *tmp != '\0') ? tmp : "/tmp";
    pattern += "/dcpi_test_XXXXXX";
    std::vector<char> buf(pattern.begin(), pattern.end());
    buf.push_back('\0');
    if (mkdtemp(buf.data()) == nullptr) {
      std::perror(("mkdtemp " + pattern).c_str());
      std::abort();
    }
    path_ = buf.data();
  }
  ~ScratchDir() {
    if (::testing::Test::HasFailure()) {
      std::fprintf(stderr, "test failed; scratch dir kept: %s\n", path_.c_str());
      return;
    }
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace dcpi

#endif  // TESTS_SCRATCH_DIR_H_
