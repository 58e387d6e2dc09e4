// write_durably: the store's one commit (temp file, fsync, rename,
// directory fsync), behind every artifact save and journal append.  A
// failed commit leaves nothing behind -- no temp file, the target as
// it was -- and its IoError names the path and keeps the errno text.
#include "store/durable.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "support/error.hpp"

namespace {

using radix::IoError;
using radix::store::write_durably;
namespace fs = std::filesystem;

std::span<const std::byte> bytes_of(const std::string& s) {
  return std::as_bytes(std::span(s));
}

std::string read_file(const fs::path& p) {
  std::ifstream in(p);
  return {std::istreambuf_iterator<char>(in), {}};
}

class StoreDurableTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("radixnet_durable_test_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

TEST_F(StoreDurableTest, MissingParentDirectoryThrowsAndCreatesNothing) {
  const fs::path target = dir_ / "absent" / "model.radixart";
  try {
    write_durably(target.string(), bytes_of("payload"));
    FAIL() << "a missing parent directory must throw";
  } catch (const IoError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(target.string()), std::string::npos) << what;
    EXPECT_NE(what.find(std::strerror(ENOENT)), std::string::npos) << what;
  }
  EXPECT_TRUE(fs::is_empty(dir_)) << "nothing may be created";
}

TEST_F(StoreDurableTest, NonEmptyDirectoryTargetThrowsAndStaysIntact) {
  const fs::path target = dir_ / "journal";
  fs::create_directories(target);
  std::ofstream(target / "keep") << "kept";
  try {
    write_durably(target.string(), bytes_of("payload"));
    FAIL() << "renaming a file over a directory must throw";
  } catch (const IoError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(target.string()), std::string::npos) << what;
  }
  EXPECT_FALSE(fs::exists(dir_ / "journal.tmp")) << "the temp file is removed";
  ASSERT_TRUE(fs::is_directory(target));
  EXPECT_EQ(read_file(target / "keep"), "kept");
}

TEST_F(StoreDurableTest, SuccessReplacesTheFileAndLeavesNoTemp) {
  const fs::path target = dir_ / "journal";
  std::ofstream(target) << "old content, longer than the new";
  write_durably(target.string(), bytes_of("new"));
  EXPECT_EQ(read_file(target), "new");
  EXPECT_FALSE(fs::exists(dir_ / "journal.tmp"));

  write_durably(target.string(), {});
  EXPECT_EQ(fs::file_size(target), 0u);
  EXPECT_FALSE(fs::exists(dir_ / "journal.tmp"));
}

}  // namespace
