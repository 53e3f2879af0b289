#pragma once

/// \file temp_path.hpp
/// Scratch paths for tests that write files.  ctest runs every TEST as
/// its own process (gtest_discover_tests), and `ctest -j` runs those
/// processes at once, so a fixed path would be written, read and
/// removed by several tests concurrently.  The process id makes each
/// test process's files its own.  tools/adapt_lint.py (rule 10) keeps
/// `/tmp/` literals out of tests/.

#include <gtest/gtest.h>
#include <unistd.h>

#include <string>

namespace adapt::test {

/// `::testing::TempDir()` + `stem` + "_" + pid + `extension`.
inline std::string temp_path(const std::string& stem,
                             const std::string& extension = "") {
  return ::testing::TempDir() + stem + "_" +
         std::to_string(static_cast<long>(::getpid())) + extension;
}

}  // namespace adapt::test
