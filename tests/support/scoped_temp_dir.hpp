// A scratch directory private to one test: named from the process id, the
// gtest suite and test name, and a per-process sequence number, created on
// construction and removed with everything in it on destruction.
//
// ctest runs every gtest case as its own process, in parallel under -j, so
// a fixed temp path shared by several cases lets one case delete or
// overwrite another's files mid-run. Tests that touch the filesystem use
// this helper instead of a hand-built temp path.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <string>
#include <system_error>

namespace pclust::test {

class ScopedTempDir {
 public:
  ScopedTempDir() : path_(unique_path()) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScopedTempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScopedTempDir(const ScopedTempDir&) = delete;
  ScopedTempDir& operator=(const ScopedTempDir&) = delete;

  [[nodiscard]] const std::filesystem::path& path() const { return path_; }
  [[nodiscard]] std::string string() const { return path_.string(); }
  [[nodiscard]] std::filesystem::path operator/(
      const std::filesystem::path& name) const {
    return path_ / name;
  }

 private:
  static std::filesystem::path unique_path() {
    static std::atomic<int> sequence{0};
    std::string name = "pclust-" + std::to_string(::getpid());
    if (const auto* info =
            ::testing::UnitTest::GetInstance()->current_test_info()) {
      name += std::string("-") + info->test_suite_name() + "-" + info->name();
    }
    name += "-" + std::to_string(sequence++);
    // Parameterized suite and test names carry '/'.
    for (char& c : name) {
      if (c == '/') c = '_';
    }
    return std::filesystem::temp_directory_path() / name;
  }

  std::filesystem::path path_;
};

}  // namespace pclust::test
