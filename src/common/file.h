// The engine's one file layer: every open, read, write, fsync, rename
// and truncate of an engine file goes through here.
//
// It holds one decision — how bytes become durable. A file is
// published by writing ALL of it to `<path>.tmp`, fsyncing it,
// renaming it over `<path>`, and fsyncing the directory; on any
// failure before the rename the temp file is removed and `<path>` is
// left untouched (WriteFileAtomic). Everything else is the plain I/O
// that protocol and the logs are built from: a write-all that reports
// how far a short write got, an exact-length read, and a whole-file
// read that never mistakes a read error for end-of-file.

#ifndef LSTORE_COMMON_FILE_H_
#define LSTORE_COMMON_FILE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "common/status.h"

namespace lstore {

/// A move-only owned file descriptor with positional I/O (no shared
/// file offset, so concurrent ReadAt/WriteAt calls on one File are
/// safe as long as their ranges do not overlap).
class File {
 public:
  enum class Mode {
    kRead,             ///< existing file, read-only
    kReadWriteCreate,  ///< read-write, created if missing, kept if present
    kCreateTruncate,   ///< read-write, created or emptied
  };

  File() = default;
  ~File() { Close(); }
  File(File&& other) noexcept;
  File& operator=(File&& other) noexcept;
  File(const File&) = delete;
  File& operator=(const File&) = delete;

  /// NotFound when `path` is missing in kRead mode; IOError otherwise.
  Status Open(const std::string& path, Mode mode);

  /// A read-write file in `dir` with no name: unlinked at once, so it
  /// vanishes when closed (spill files).
  Status OpenAnonymous(const std::string& dir);

  void Close();
  bool is_open() const { return fd_ >= 0; }
  const std::string& path() const { return path_; }

  /// Write all of `bytes` at `offset`, retrying interrupted and partial
  /// writes. On failure (e.g. ENOSPC) `*written` (optional) holds the
  /// bytes that did land, so the caller can resume at offset+written.
  Status WriteAt(uint64_t offset, std::string_view bytes,
                 size_t* written = nullptr);

  /// Write `len` zero bytes at `offset` (pre-extending a log), from one
  /// static zero page; `*written` as for WriteAt.
  Status WriteZerosAt(uint64_t offset, size_t len, size_t* written = nullptr);

  /// Read exactly `len` bytes at `offset` into `out`; IOError when the
  /// file ends first or the read fails.
  Status ReadAt(uint64_t offset, size_t len, std::string* out) const;

  Status Sync();
  /// Sync the data and the metadata needed to read it back (the
  /// length), not the timestamps: no journal commit when a write
  /// changed neither the length nor the block map.
  Status SyncData();
  Status Truncate(uint64_t size);
  /// Byte length of the file; IOError for a directory.
  Status Size(uint64_t* size) const;

 private:
  int fd_ = -1;
  std::string path_;
};

/// Read the whole file, as long as it was when opened, into `out`.
/// NotFound when the file is missing; IOError on any read error.
Status ReadFile(const std::string& path, std::string* out);

/// Publish `path` durably: `fill` writes the new content into the temp
/// file `<path>.tmp`, which is fsynced, renamed over `path`, and its
/// directory fsynced. Any failure before the rename removes the temp
/// and leaves `path` as it was. When `published` is given, it receives
/// the open temp handle (now naming `path`) once the rename has
/// happened — also when the directory fsync after it fails, which is
/// the one error that leaves the new content in place.
Status WriteFileAtomic(const std::string& path,
                       const std::function<Status(File&)>& fill,
                       File* published = nullptr);

/// rename(2) `from` onto `to`, then fsync the directory of `to`.
/// NotFound when `from` is missing; IOError otherwise.
Status RenameDurably(const std::string& from, const std::string& to);

/// fsync a directory so renames and unlinks inside it survive power
/// loss (the data of the files alone is not enough).
Status SyncDir(const std::string& dir);

/// Whether `path` exists; `*size` (optional) receives its byte length.
bool FileExists(const std::string& path, uint64_t* size = nullptr);

/// Parse the number in a file name (a log segment's LSN, an archived
/// manifest's id): one or more decimal digits whose value is at most
/// UINT64_MAX. Anything else — a longer number included, which would
/// otherwise wrap — is no number.
bool ParseDecimal(std::string_view digits, uint64_t* value);

}  // namespace lstore

#endif  // LSTORE_COMMON_FILE_H_
