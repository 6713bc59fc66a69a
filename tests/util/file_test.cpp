/// \file file_test.cpp
/// prepareOutputDir: `--csv=DIR` must be usable on a fresh checkout, so
/// the helper creates missing parents, trims trailing slashes, and fails
/// with the path in the message when something other than a directory is
/// in the way.

#include "util/file.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <stdexcept>
#include <string>

namespace vanet::util {
namespace {

namespace fs = std::filesystem;

/// A fresh, empty TempDir()/`name`.
std::string freshDir(const std::string& name) {
  const std::string root = ::testing::TempDir() + "/" + name;
  fs::remove_all(root);
  return root;
}

TEST(PrepareOutputDirTest, CreatesMissingNestedDirectory) {
  const std::string root = freshDir("prepare_nested");
  const std::string dir = root + "/a/b/c";
  EXPECT_EQ(prepareOutputDir(dir), dir);
  EXPECT_TRUE(fs::is_directory(dir));
  EXPECT_TRUE(writeFile(dir + "/x.csv", "1\n"));
}

TEST(PrepareOutputDirTest, StripsTrailingSlashes) {
  const std::string root = freshDir("prepare_slash");
  EXPECT_EQ(prepareOutputDir(root + "/out//"), root + "/out");
  EXPECT_TRUE(fs::is_directory(root + "/out"));
  EXPECT_EQ(prepareOutputDir("/"), "/");
}

TEST(PrepareOutputDirTest, ExistingDirectoryIsAccepted) {
  const std::string root = freshDir("prepare_existing");
  fs::create_directories(root);
  EXPECT_EQ(prepareOutputDir(root), root);
}

TEST(PrepareOutputDirTest, RegularFileInTheWayNamesThePath) {
  const std::string root = freshDir("prepare_blocked");
  fs::create_directories(root);
  const std::string blocker = root + "/file";
  ASSERT_TRUE(writeFile(blocker, "not a directory"));
  for (const std::string& dir : {blocker, blocker + "/sub"}) {
    try {
      prepareOutputDir(dir);
      FAIL() << "expected an error for " << dir;
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find(dir), std::string::npos)
          << error.what();
    }
  }
}

}  // namespace
}  // namespace vanet::util
