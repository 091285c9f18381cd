// Unit tests for the file layer (src/common/file.h): read errors are
// never end-of-file, the atomic publish leaves the old file intact on
// failure, and a short write resumes byte-exact at a tracked offset —
// also a short zero fill, and a framed log whose pre-extension fails.

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <csignal>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "common/file.h"
#include "log/framed_log.h"

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

/// Caps the process's file size at `bytes` while in scope: the kernel
/// then accepts only part of a write that crosses the cap, the same
/// partial write ENOSPC produces.
class FileSizeCap {
 public:
  explicit FileSizeCap(uint64_t bytes) {
    EXPECT_EQ(::getrlimit(RLIMIT_FSIZE, &saved_), 0);
    old_handler_ = std::signal(SIGXFSZ, SIG_IGN);
    struct ::rlimit capped = saved_;
    capped.rlim_cur = bytes;
    EXPECT_EQ(::setrlimit(RLIMIT_FSIZE, &capped), 0);
  }
  ~FileSizeCap() {
    EXPECT_EQ(::setrlimit(RLIMIT_FSIZE, &saved_), 0);
    std::signal(SIGXFSZ, old_handler_);
  }

 private:
  struct ::rlimit saved_;
  void (*old_handler_)(int);
};

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

  size_t written = 0;
  Status s;
  {
    FileSizeCap cap(40);
    s = f.WriteAt(0, bytes, &written);
  }

  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  ASSERT_EQ(written, 40u);
  ASSERT_TRUE(f.WriteAt(written, std::string_view(bytes).substr(written)).ok());
  EXPECT_EQ(Get(dir_ + "/f"), bytes);
}

// WriteZerosAt fills any length, across its 4 KiB pages and 256 KiB
// calls, over existing bytes; SyncData then succeeds, and fails on a
// closed file.
TEST_F(FileTest, WriteZerosAtAndSyncData) {
  const size_t len = 3 * 256 * 1024 + 4096 + 123;
  Put(dir_ + "/f", std::string(len + 20, 'x'));
  File f;
  ASSERT_TRUE(f.Open(dir_ + "/f", File::Mode::kReadWriteCreate).ok());
  size_t written = 0;
  ASSERT_TRUE(f.WriteZerosAt(10, len, &written).ok());
  EXPECT_EQ(written, len);
  ASSERT_TRUE(f.WriteZerosAt(len + 40, 5).ok());  // past the end
  ASSERT_TRUE(f.SyncData().ok());
  EXPECT_EQ(Get(dir_ + "/f"), std::string(10, 'x') + std::string(len, '\0') +
                                  std::string(10, 'x') +
                                  std::string(25, '\0'));
  f.Close();
  EXPECT_TRUE(f.SyncData().IsIOError());
}

// A short zero fill reports how much landed, as WriteAt does, and
// resuming at that offset completes it.
TEST_F(FileTest, WriteZerosAtResumesAfterPartialWrite) {
  Put(dir_ + "/f", "abc");
  File f;
  ASSERT_TRUE(f.Open(dir_ + "/f", File::Mode::kReadWriteCreate).ok());
  size_t written = 0;
  Status s;
  {
    FileSizeCap cap(50000);
    s = f.WriteZerosAt(3, 100000, &written);
  }
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  ASSERT_EQ(written, 50000u - 3);
  ASSERT_TRUE(f.WriteZerosAt(3 + written, 100000 - written).ok());
  EXPECT_EQ(Get(dir_ + "/f"), "abc" + std::string(100000, '\0'));
}

// A framed log pre-extends its file before a write-out passes its end.
// When that extension falls short, no frame byte is written: the file
// still replays the frames written before, and the next write-out
// extends from where the short one stopped and writes every buffered
// frame byte for byte.
TEST_F(FileTest, FramedLogResumesAfterAShortExtension) {
  const std::string path = FramedLog::SegmentPath(dir_, 1);
  const FramedLog::Codec codec = [](const char*, size_t, uint64_t* n) {
    *n = 1;
    return true;
  };
  auto replayed = [&](FramedLog::ScanStats* stats) {
    std::vector<std::string> payloads;
    EXPECT_TRUE(FramedLog::ScanFile(
                    path, codec,
                    [&](std::string_view payload, uint64_t, uint64_t, size_t,
                        size_t) { payloads.emplace_back(payload); },
                    stats)
                    .ok());
    return payloads;
  };
  std::vector<std::string> frames;
  for (int i = 0; i < 40; ++i) {
    frames.push_back(std::string(64 * 1024, static_cast<char>('a' + i % 26)));
  }
  FramedLog log(codec);
  ASSERT_TRUE(log.Open(dir_).ok());
  for (int i = 0; i < 3; ++i) log.Append(frames[i], 1);
  ASSERT_TRUE(log.Flush(/*sync=*/true).ok());
  ASSERT_EQ(Get(path).size(), 2 * FramedLog::kPreExtend);

  // 37 more frames pass the 2 MiB end; the extension to 4 MiB stops
  // at 2.25 MiB, short of the frames' end.
  for (int i = 3; i < 40; ++i) log.Append(frames[i], 1);
  Status s;
  {
    FileSizeCap cap(2 * FramedLog::kPreExtend + FramedLog::kPreExtend / 4);
    s = log.Flush(/*sync=*/true);
  }
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  FramedLog::ScanStats stats;
  EXPECT_EQ(replayed(&stats),
            std::vector<std::string>(frames.begin(), frames.begin() + 3));
  EXPECT_TRUE(stats.clean_end);

  ASSERT_TRUE(log.Flush(/*sync=*/true).ok());
  EXPECT_EQ(replayed(&stats), frames);
  EXPECT_TRUE(stats.clean_end);
  EXPECT_EQ(stats.bytes_consumed, log.bytes());
  EXPECT_EQ(Get(path).size(), 4 * FramedLog::kPreExtend);
  log.Close();
  EXPECT_EQ(Get(path).size(), stats.bytes_consumed);
  EXPECT_EQ(replayed(&stats), frames);
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

// A number in a file name parses only when it fits in 64 bits: one
// past UINT64_MAX, or a longer one, is no number (a parse that wrapped
// would make it a small one and the file a segment of made-up LSNs).
TEST(ParseDecimalTest, RejectsValuesAboveUint64Max) {
  uint64_t v = 0;
  EXPECT_TRUE(ParseDecimal("18446744073709551615", &v));
  EXPECT_EQ(v, UINT64_MAX);
  EXPECT_TRUE(ParseDecimal("007", &v));
  EXPECT_EQ(v, 7u);
  for (const char* bad : {"18446744073709551616", "18446744073709551621",
                          "100000000000000000005", "", "12a", "-1"}) {
    EXPECT_FALSE(ParseDecimal(bad, &v)) << bad;
  }
}

}  // namespace
}  // namespace lstore
