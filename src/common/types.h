// Core value / identifier types of the lineage-based storage model.
//
// Paper mapping (Section 2.2):
//  * Records in base and tail pages share a single RID key space; we
//    tag tail RIDs with the MSB and encode (update range id, in-range
//    tail sequence number). The in-range sequence number is the
//    monotonically increasing value that is compared against a page's
//    TPS (tail-page sequence number, Section 4.2).
//  * The special null value (∅ in the paper) marks non-materialized
//    columns of tail records and deleted data columns.
//  * Start Time slots hold either a commit timestamp or a transaction
//    id; the two are distinguished by the MSB (Section 5.1.1: "The
//    Start Time column may also hold transaction ID").

#ifndef LSTORE_COMMON_TYPES_H_
#define LSTORE_COMMON_TYPES_H_

#include <cstdint>
#include <limits>

namespace lstore {

using Value = uint64_t;
using Rid = uint64_t;
using ColumnId = uint32_t;
/// Bitmap over data columns (Schema Encoding payload), one bit per
/// column; the top byte is reserved for flags.
using ColumnMask = uint64_t;
/// Most data columns a table can have: one ColumnMask bit each.
inline constexpr uint32_t kMaxColumns = 56;

/// The special null value ∅: pre-assigned to never-updated columns of
/// tail records and to all data columns of delete records.
inline constexpr Value kNull = std::numeric_limits<uint64_t>::max();

inline constexpr Rid kInvalidRid = std::numeric_limits<uint64_t>::max();

// ---------------------------------------------------------------------------
// Tail RID encoding: [63]=1 | [62:24]=update range id | [23:0]=sequence.
// Sequence numbers start at 1 within each range (0 encodes "none", the
// ⊥ indirection). Base RIDs have bit 63 clear, so page-directory scans
// over base records never visit tail entries (the paper achieves the
// same via reverse RID allocation, Section 4.4).
// ---------------------------------------------------------------------------

inline constexpr uint64_t kTailRidTag = 1ull << 63;
inline constexpr uint32_t kTailSeqBits = 24;
inline constexpr uint32_t kMaxTailSeq = (1u << kTailSeqBits) - 1;

constexpr Rid MakeTailRid(uint64_t range_id, uint32_t seq) {
  return kTailRidTag | (range_id << kTailSeqBits) | seq;
}
constexpr bool IsTailRid(Rid rid) { return (rid & kTailRidTag) != 0; }
constexpr uint64_t TailRidRange(Rid rid) {
  return (rid & ~kTailRidTag) >> kTailSeqBits;
}
constexpr uint32_t TailRidSeq(Rid rid) {
  return static_cast<uint32_t>(rid & kMaxTailSeq);
}

// ---------------------------------------------------------------------------
// Timestamps and transaction ids.
// ---------------------------------------------------------------------------

using Timestamp = uint64_t;
using TxnId = uint64_t;

/// MSB tag: a Start Time slot whose MSB is set holds a transaction id
/// (the writer has not been lazily stamped with its commit time yet).
inline constexpr uint64_t kTxnIdTag = 1ull << 63;

/// Stamp written into the Start Time slot of tail records belonging to
/// aborted transactions (the tombstone of Section 5.1.3: "the tail
/// record is marked as invalid").
inline constexpr uint64_t kAbortedStamp = kTxnIdTag | (1ull << 62);

constexpr bool IsTxnId(uint64_t start_time_raw) {
  return (start_time_raw & kTxnIdTag) != 0 && start_time_raw != kAbortedStamp;
}
constexpr bool IsAbortedStamp(uint64_t start_time_raw) {
  return start_time_raw == kAbortedStamp;
}

inline constexpr Timestamp kMaxTimestamp = kTxnIdTag - 1;

// ---------------------------------------------------------------------------
// Indirection slot encoding (base records). The Indirection column is
// the only in-place-updated column (Section 3.1), one 8-byte word per
// record. Bit 63 is the write latch used for write-write conflict
// detection via CAS (Section 5.1.1: "Each indirection pointer reserves
// one bit for latching"). The low 24 bits hold the latest tail
// sequence number (0 = ⊥). L-Store's word keeps its base Schema
// Encoding in bits 24-62: the ever-updated bits of data columns 0-38
// (a wider table keeps the rest beside the word), so one load yields
// a consistent chain head and mask.
// ---------------------------------------------------------------------------

inline constexpr uint64_t kIndirLatchBit = 1ull << 63;
/// Data columns whose ever-updated bit lives in the word.
inline constexpr uint32_t kIndirEverColumns = 63 - kTailSeqBits;
inline constexpr ColumnMask kIndirEverMask = (1ull << kIndirEverColumns) - 1;

constexpr uint32_t IndirSeq(uint64_t indir_raw) {
  return static_cast<uint32_t>(indir_raw & kMaxTailSeq);
}
constexpr bool IndirLatched(uint64_t indir_raw) {
  return (indir_raw & kIndirLatchBit) != 0;
}
/// The ever-updated bits of columns 0-38 the word carries.
constexpr ColumnMask IndirEver(uint64_t indir_raw) {
  return (indir_raw >> kTailSeqBits) & kIndirEverMask;
}
/// An unlatched word: chain head `seq`, ever-updated `ever` (bits past
/// column 38 are dropped).
constexpr uint64_t IndirWord(uint32_t seq, ColumnMask ever) {
  return (ever & kIndirEverMask) << kTailSeqBits | seq;
}

// ---------------------------------------------------------------------------
// Schema Encoding flags (Section 3.1). Bits [0..55] form the data
// column bitmap; the top byte carries record-level flags:
//  * kSnapshotFlag marks a pre-image record ("0001*" in Table 2): the
//    snapshot of original values taken on the first update of a column
//    so that outdated base pages can be discarded safely (Lemma 2).
//  * kDeleteFlag marks a delete record (all data columns ∅).
// ---------------------------------------------------------------------------

inline constexpr uint64_t kSnapshotFlag = 1ull << 62;
inline constexpr uint64_t kDeleteFlag = 1ull << 63;
/// Set on a tail record when the SAME transaction later appended a
/// record covering all of its columns (Section 3.1: "each update is
/// written as a separate entry ... only the final update becomes
/// visible to other transactions. The prior entries are implicitly
/// invalidated and skipped by readers"). Readers treat such records
/// as invisible even after the transaction commits.
inline constexpr uint64_t kSupersededFlag = 1ull << 61;
inline constexpr uint64_t kSchemaMaskBits = (1ull << kMaxColumns) - 1;

constexpr ColumnMask SchemaColumns(uint64_t enc) {
  return enc & kSchemaMaskBits;
}
constexpr bool IsSnapshotRecord(uint64_t enc) {
  return (enc & kSnapshotFlag) != 0;
}
constexpr bool IsDeleteRecord(uint64_t enc) {
  return (enc & kDeleteFlag) != 0;
}
constexpr bool IsSupersededRecord(uint64_t enc) {
  return (enc & kSupersededFlag) != 0;
}

}  // namespace lstore

#endif  // LSTORE_COMMON_TYPES_H_
