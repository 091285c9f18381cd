// Historic store: compressed, read-only representation of merged tail
// records (Section 4.3, Table 6).
//
// Versions are re-ordered by base RID, inlined contiguously per
// record, and delta-compressed (zigzag varints) per column. The store
// serves time-travel reads of versions that fell outside every active
// snapshot; the original tail pages below the boundary are reclaimed.

#ifndef LSTORE_CORE_HISTORIC_H_
#define LSTORE_CORE_HISTORIC_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.h"

namespace lstore {

class HistoricStore {
 public:
  /// One version of one record, as fed by the compression pass and as
  /// returned by decoding (seq ascending within a record).
  struct Version {
    uint32_t seq;
    Timestamp start_time;   ///< commit time (always resolved)
    uint64_t schema_encoding;
    ColumnMask mask;        ///< materialized data columns
    std::vector<Value> values;  ///< one per set bit of mask, low→high
  };

  /// Build a store covering tail seqs [1, boundary] of one range.
  /// `per_slot` maps base slot → versions (any order; sorted inside).
  /// `previous` (may be null) is the store being replaced; its
  /// contents are carried over.
  static HistoricStore* Build(
      uint32_t boundary,
      const std::unordered_map<uint32_t, std::vector<Version>>& per_slot,
      const HistoricStore* previous, uint32_t num_columns);

  /// Highest tail seq contained.
  uint32_t boundary() const { return boundary_; }

  /// Decode all versions of a base slot (empty if none). Versions are
  /// returned seq-ascending. Cold path: decompresses on demand.
  std::vector<Version> VersionsOf(uint32_t slot) const;

  /// The one historic lookup: the newest of `versions` (a slot's
  /// VersionsOf) with seq <= `at_or_below` that a reader at `as_of`
  /// sees (start_time < as_of), skipping superseded versions; nullptr
  /// if none. A chain walk continues at the found seq - 1.
  static const Version* Newest(const std::vector<Version>& versions,
                               uint32_t at_or_below, Timestamp as_of);

  size_t byte_size() const { return blob_.size(); }
  size_t num_records() const { return offsets_.size(); }
  size_t num_versions() const { return num_versions_; }

  /// Base slots that have at least one compressed version (unordered).
  std::vector<uint32_t> Slots() const;

  /// Checkpoint serialization: the store is immutable after Build, so
  /// a byte-for-byte copy of the blob plus the offset directory fully
  /// reconstructs it (src/checkpoint/ serde, Section 5.1.3).
  void EncodeTo(std::string* out) const;
  static HistoricStore* DecodeFrom(const char* data, size_t size);

 private:
  HistoricStore() = default;

  void EncodeSlot(uint32_t slot, const std::vector<Version>& versions);

  uint32_t boundary_ = 0;
  uint32_t num_columns_ = 0;
  size_t num_versions_ = 0;
  /// slot → byte offset of its encoded version block (ordered build:
  /// blocks are written in ascending slot order, Table 6).
  std::unordered_map<uint32_t, size_t> offsets_;
  std::string blob_;
};

}  // namespace lstore

#endif  // LSTORE_CORE_HISTORIC_H_
