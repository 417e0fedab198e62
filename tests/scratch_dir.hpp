#pragma once
// Per-process scratch directories for tests that touch the file system.
// A directory's name carries the test process's pid, so test processes
// running side by side (say a sanitizer suite beside a filtered run)
// never share one, and every directory a test made is removed when that
// test ends.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

namespace citroen::test_support {

/// Directories scratch_dir made for the running test.
inline std::vector<std::filesystem::path>& scratch_dirs() {
  static std::vector<std::filesystem::path> dirs;
  return dirs;
}

/// Removes the running test's scratch directories when it ends.
class ScratchDirCleaner : public ::testing::EmptyTestEventListener {
  void OnTestEnd(const ::testing::TestInfo&) override {
    for (const auto& dir : scratch_dirs()) {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
    scratch_dirs().clear();
  }
};

/// A fresh, empty `<temp>/<name>_<pid>`, removed when the running test
/// ends.
inline std::string scratch_dir(const std::string& name) {
  static const bool cleaner_installed = [] {
    ::testing::UnitTest::GetInstance()->listeners().Append(
        new ScratchDirCleaner);
    return true;
  }();
  (void)cleaner_installed;
  const auto dir = std::filesystem::temp_directory_path() /
                   (name + "_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  scratch_dirs().push_back(dir);
  return dir.string();
}

}  // namespace citroen::test_support
