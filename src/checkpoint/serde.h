// Binary serialization layer of the durability subsystem.
//
// Checkpoint files, the manifest, and the catalog all share one frame
// format, mirroring the redo log (Section 5.1.3):
//
//   [payload_len varint][type byte + payload][crc32c over payload]
//
// so a torn or bit-flipped frame is detected exactly like a torn log
// record. In addition the writer folds every byte it emits into a
// running crc32c whole-file checksum that the checkpoint manifest
// stores next to the file name — a flipped byte anywhere in a
// checkpointed page fails recovery with a clean Corruption error
// instead of resurrecting wrong data.
//
// CheckpointIO owns the checkpoint format. It captures each update
// range through Range::Capture, at a stable merge lineage (under the
// range's merge latch, pinned by an epoch guard), and restores the
// captured state into a freshly constructed table through the range's
// restore operations (Range::RestoreState, InstallSegment, Apply).

#ifndef LSTORE_CHECKPOINT_SERDE_H_
#define LSTORE_CHECKPOINT_SERDE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/file.h"
#include "common/status.h"
#include "common/types.h"

namespace lstore {

class Table;

/// Frame types of a checkpoint / manifest / catalog file.
enum class FrameType : uint8_t {
  kFileHeader = 1,     ///< magic + format version
  kTableHeader = 2,    ///< table name, schema, shape
  kRangeState = 3,     ///< per-range counters and lineage watermarks
  kBaseSegment = 4,    ///< one consolidated column of one range
  kUpdateRecords = 5,  ///< tail records of one range's update pages
  kInsertRecords = 6,  ///< table-level tail pages beyond the based prefix
  kHistoric = 7,       ///< compressed historic store of one range
  kTableFooter = 8,    ///< range count (completeness check)
  kManifestEntry = 9,  ///< one table's checkpoint reference
  kCatalogEntry = 10,  ///< one table's schema + config
  kManifestHeader = 11,
  kCatalogHeader = 12,
  /// One consolidated column stored by reference into the table's
  /// segment store ({offset, length, checksum, column header} instead
  /// of the inline serialized column): written when the buffer pool
  /// already wrote the segment through, so the checkpoint is pre-paid
  /// and recovery maps the segment lazily instead of loading it.
  kBaseSegmentRef = 13,
};

/// Magics carried in the kFileHeader frame.
inline constexpr uint32_t kCheckpointMagic = 0x4b43534c;  // "LSCK"
inline constexpr uint32_t kManifestMagic = 0x464d534c;    // "LSMF"
inline constexpr uint32_t kCatalogMagic = 0x4754534c;     // "LSTG"
/// Version 2 stores base segments in their compressed serialized form
/// (CompressedColumn::AppendTo); readers accept only this version.
inline constexpr uint32_t kCheckpointFormatVersion = 2;

/// Frame-oriented writer into an open File, from offset 0, with a
/// running whole-file checksum. The file header frame is written
/// first. Frames are batched into writes of at most kWriteBatch bytes
/// (a larger frame goes out alone), so a checkpoint — one frame per
/// range and column — is not one syscall per frame. Finish() writes
/// the last batch; durability is the caller's: WriteFileAtomic fsyncs
/// a published file, and a checkpoint file is fsynced by its writer.
class FrameWriter {
 public:
  static constexpr size_t kWriteBatch = 64 * 1024;

  FrameWriter(File* file, uint32_t magic);
  Status WriteFrame(FrameType type, const std::string& payload);
  Status Finish();
  uint64_t file_checksum() const { return checksum_; }

 private:
  Status WriteBatch();
  File* file_;
  uint64_t offset_ = 0;  ///< bytes already written to file_
  std::string batch_;
  uint32_t checksum_ = 0;
};

/// Reads a frame file fully, verifying per-frame checksums. The
/// whole-file checksum is available immediately after Open.
class FrameReader {
 public:
  Status Open(const std::string& path, uint32_t expected_magic);
  /// Next frame; false at clean end-of-file. A malformed frame turns
  /// status() into Corruption and stops iteration.
  bool Next(FrameType* type, std::string_view* payload);
  Status status() const { return status_; }
  uint64_t file_checksum() const { return checksum_; }

 private:
  std::string data_;
  size_t pos_ = 0;
  uint32_t checksum_ = 0;
  Status status_;
};

// --- payload primitives ----------------------------------------------------

void PutString(std::string* out, std::string_view s);
bool GetString(std::string_view in, size_t* pos, std::string* s);
bool GetU64(std::string_view in, size_t* pos, uint64_t* v);

// --- table checkpoint I/O --------------------------------------------------

class CheckpointIO {
 public:
  /// Serialize the table's full durable state to `path`. Captures each
  /// range under its merge latch (stable lineage: base segments, TPS,
  /// and historic boundary move only under that latch) while holding
  /// an epoch pin so retired segments stay alive. `file_checksum`
  /// receives the crc32c of the written file for the manifest.
  static Status WriteTable(Table& table, const std::string& path,
                           uint64_t* file_checksum);

  /// Restore `path` into a freshly constructed, empty table. Indexes
  /// and the Indirection column are NOT restored here — recovery
  /// rebuilds them from Base RID backpointers (recovery option 2).
  /// A nonzero `expected_checksum` (from the manifest) is compared
  /// against the file's crc32c; mismatch fails with Corruption.
  static Status LoadTable(Table* table, const std::string& path,
                          uint64_t expected_checksum = 0);
};

}  // namespace lstore

#endif  // LSTORE_CHECKPOINT_SERDE_H_
