#include "util/serialize.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

namespace dv {
namespace {

/// Creates an empty regular file at `path`.
void touch(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  std::fclose(f);
}

TEST(SerializeFile, FileExists) {
  const std::string path = ::testing::TempDir() + "/dv_serialize_test.dvsnap";
  std::remove(path.c_str());
  EXPECT_FALSE(file_exists(path));
  touch(path);
  EXPECT_TRUE(file_exists(path));
  // A directory is not a regular file.
  EXPECT_FALSE(file_exists(::testing::TempDir()));
  std::remove(path.c_str());
}

TEST(SerializeDir, EnsureDirectoryCreatesNested) {
  const std::string dir = ::testing::TempDir() + "/dv_ser_a/b/c";
  ensure_directory(dir);
  // Creating again is a no-op.
  ensure_directory(dir);
  const std::string probe = dir + "/x.dvsnap";
  touch(probe);
  EXPECT_TRUE(file_exists(probe));
  std::remove(probe.c_str());
}

TEST(SerializeDir, EnsureDirectoryOverFileThrows) {
  const std::string file = ::testing::TempDir() + "/dv_ser_file";
  touch(file);
  EXPECT_THROW(ensure_directory(file + "/sub"), serialize_error);
  std::remove(file.c_str());
}

}  // namespace
}  // namespace dv
