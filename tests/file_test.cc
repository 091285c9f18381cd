// Unit tests for the file layer (src/common/file.h): read errors are
// never end-of-file, the atomic publish leaves the old file intact on
// failure, and a short write resumes byte-exact at a tracked offset.

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <csignal>
#include <filesystem>
#include <string>

#include "common/file.h"

namespace lstore {
namespace {

namespace fs = std::filesystem;

class FileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::string(::testing::TempDir()) + "lstore_file_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// Create `path` holding `bytes`.
  static void Put(const std::string& path, const std::string& bytes) {
    File f;
    ASSERT_TRUE(f.Open(path, File::Mode::kCreateTruncate).ok());
    ASSERT_TRUE(f.WriteAt(0, bytes).ok());
  }

  static std::string Get(const std::string& path) {
    std::string out;
    EXPECT_TRUE(ReadFile(path, &out).ok());
    return out;
  }

  std::string dir_;
};

TEST_F(FileTest, ReadFileOfDirectoryIsIOError) {
  std::string out = "stale";
  Status s = ReadFile(dir_, &out);
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
}

TEST_F(FileTest, ReadFileOfMissingPathIsNotFound) {
  std::string out;
  Status s = ReadFile(dir_ + "/missing", &out);
  EXPECT_TRUE(s.IsNotFound()) << s.ToString();
}

TEST_F(FileTest, ReadFileReturnsWholeContent) {
  std::string bytes(200000, '\0');
  for (size_t i = 0; i < bytes.size(); ++i) bytes[i] = static_cast<char>(i);
  Put(dir_ + "/f", bytes);
  EXPECT_EQ(Get(dir_ + "/f"), bytes);
  Put(dir_ + "/empty", "");
  EXPECT_EQ(Get(dir_ + "/empty"), "");
}

TEST_F(FileTest, ReadAtPastEndIsIOError) {
  Put(dir_ + "/f", "0123456789");
  File f;
  ASSERT_TRUE(f.Open(dir_ + "/f", File::Mode::kRead).ok());
  std::string out;
  ASSERT_TRUE(f.ReadAt(4, 6, &out).ok());
  EXPECT_EQ(out, "456789");
  EXPECT_TRUE(f.ReadAt(4, 7, &out).IsIOError());
  EXPECT_TRUE(f.ReadAt(20, 1, &out).IsIOError());
}

TEST_F(FileTest, FailedFillLeavesTargetAndNoTemp) {
  const std::string path = dir_ + "/MANIFEST";
  Put(path, "old content");
  Status s = WriteFileAtomic(path, [](File& f) {
    EXPECT_TRUE(f.WriteAt(0, "new content, half written").ok());
    return Status::IOError("fill failed");
  });
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  EXPECT_EQ(Get(path), "old content");
  EXPECT_FALSE(FileExists(path + ".tmp"));
}

TEST_F(FileTest, WriteFileAtomicPublishesAndHandsOverHandle) {
  const std::string path = dir_ + "/log";
  Put(path, "old");
  File published;
  ASSERT_TRUE(WriteFileAtomic(
                  path, [](File& f) { return f.WriteAt(0, "new"); },
                  &published)
                  .ok());
  EXPECT_EQ(Get(path), "new");
  EXPECT_FALSE(FileExists(path + ".tmp"));
  // The handed-over handle is the published file.
  ASSERT_TRUE(published.is_open());
  ASSERT_TRUE(published.WriteAt(3, "er").ok());
  EXPECT_EQ(Get(path), "newer");
}

TEST_F(FileTest, RenameDurablyOfMissingSourceIsNotFound) {
  Status s = RenameDurably(dir_ + "/missing", dir_ + "/target");
  EXPECT_TRUE(s.IsNotFound()) << s.ToString();
  Put(dir_ + "/a", "x");
  ASSERT_TRUE(RenameDurably(dir_ + "/a", dir_ + "/b").ok());
  EXPECT_FALSE(FileExists(dir_ + "/a"));
  uint64_t size = 0;
  EXPECT_TRUE(FileExists(dir_ + "/b", &size));
  EXPECT_EQ(size, 1u);
}

// A file-size limit makes the kernel accept only part of a write (the
// same partial write ENOSPC produces): WriteAt reports how much landed,
// and resuming at that offset yields the file byte for byte.
TEST_F(FileTest, WriteAtResumesAfterPartialWrite) {
  std::string bytes(100, '\0');
  for (size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<char>('a' + i % 26);
  }
  File f;
  ASSERT_TRUE(f.Open(dir_ + "/f", File::Mode::kCreateTruncate).ok());

  struct ::rlimit saved;
  ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &saved), 0);
  auto old_handler = std::signal(SIGXFSZ, SIG_IGN);
  struct ::rlimit capped = saved;
  capped.rlim_cur = 40;
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &capped), 0);
  size_t written = 0;
  Status s = f.WriteAt(0, bytes, &written);
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &saved), 0);
  std::signal(SIGXFSZ, old_handler);

  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  ASSERT_EQ(written, 40u);
  ASSERT_TRUE(f.WriteAt(written, std::string_view(bytes).substr(written)).ok());
  EXPECT_EQ(Get(dir_ + "/f"), bytes);
}

TEST_F(FileTest, TruncateAndSize) {
  Put(dir_ + "/f", "0123456789");
  File f;
  ASSERT_TRUE(f.Open(dir_ + "/f", File::Mode::kReadWriteCreate).ok());
  uint64_t size = 0;
  ASSERT_TRUE(f.Size(&size).ok());
  EXPECT_EQ(size, 10u);
  ASSERT_TRUE(f.Truncate(4).ok());
  ASSERT_TRUE(f.Sync().ok());
  EXPECT_EQ(Get(dir_ + "/f"), "0123");
}

}  // namespace
}  // namespace lstore
