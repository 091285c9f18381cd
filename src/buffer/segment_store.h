// Append-only swap store for read-optimized base segments.
//
// One SegmentStore backs one table's buffer-managed base segments:
// merge output writes each consolidated column through in its
// serialized compressed form (CompressedColumn::AppendTo), records its
// {offset, length, checksum}, and from then on the in-memory copy is
// evictable — a cold page demand-loads by reading its recorded byte
// range back and parsing it. Offsets are stable for the
// lifetime of the file (the store is never compacted in place), so
// checkpoint manifests may reference them across restarts.
//
// Durability contract: appends are NOT fsynced individually — a
// checkpoint that publishes references into the store calls Sync()
// first, so every offset a durable manifest names is on disk before
// the manifest rename. Demand loads within one process only need the
// OS cache. A torn tail from a crash is harmless: nothing durable
// references it, and new appends simply start beyond it.

#ifndef LSTORE_BUFFER_SEGMENT_STORE_H_
#define LSTORE_BUFFER_SEGMENT_STORE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>

#include "common/file.h"
#include "common/status.h"

namespace lstore {

class SegmentStore {
 public:
  SegmentStore() = default;
  ~SegmentStore();

  SegmentStore(const SegmentStore&) = delete;
  SegmentStore& operator=(const SegmentStore&) = delete;

  /// Open (or create) a named store; new appends go at the current
  /// end so previously recorded offsets stay valid. `read_only` opens
  /// an existing store without mutating it (point-in-time restore
  /// reads a foreign directory): Append fails and durable() stays
  /// false — nothing durable may reference a read-only handle.
  Status Open(const std::string& path, bool read_only = false);

  /// Anonymous spill file for standalone tables (unlinked immediately,
  /// so it vanishes with the process). Offsets from a temp store are
  /// never referenced by durable state: durable() stays false.
  Status OpenTemp();

  void Close();

  /// Append `payload` verbatim; `*offset` receives its stable position.
  Status Append(std::string_view payload, uint64_t* offset);

  /// Read back [offset, offset + length). Thread-safe against Append.
  Status ReadAt(uint64_t offset, uint64_t length, std::string* out) const;

  /// Whether [offset, offset + length) lies within the current file
  /// (recovery validates manifest references eagerly).
  bool Contains(uint64_t offset, uint64_t length) const;

  /// fsync the store (checkpoint publish barrier).
  Status Sync();

  /// True for named stores whose offsets may be referenced by durable
  /// checkpoints; false for anonymous spill files.
  bool durable() const { return durable_; }

  uint64_t size_bytes() const {
    return end_.load(std::memory_order_acquire);
  }
  const std::string& path() const { return file_.path(); }

 private:
  File file_;
  bool durable_ = false;
  std::mutex append_mu_;
  std::atomic<uint64_t> end_{0};
};

}  // namespace lstore

#endif  // LSTORE_BUFFER_SEGMENT_STORE_H_
