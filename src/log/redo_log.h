// Redo-only write-ahead log for tail pages.
//
// Section 5.1.3: base pages are read-only (no logging); tail pages are
// append-only and never updated in place, so only *redo* records are
// required. Aborted transactions leave tombstones (the aborted stamp)
// rather than being undone physically. The Indirection column is
// rebuilt at recovery from the Base RID column / backpointers, so it
// needs no log of its own (recovery option 2 in the paper).
//
// A bulk insert logs its data and little more: one kInsertRun record
// per range a batch fills — [type][txn id][range][first slot][count]
// [mask], then count x popcount(mask) varint values, row by row — in
// place of one self-describing record per row. Each row of a run still
// owns an LSN (first slot's row gets the run's first LSN, and so on),
// and replay expands the run into per-row kInsertAppend records, so
// watermarks, truncation and recovery see one record per row.
//
// Record framing, LSN numbering, torn-tail repair, and truncation are
// the shared framed-log core's (log/framed_log.h): this class is a
// thin wrapper that owns only the redo payload codec — what the bytes
// of a record MEAN. Records are numbered 1, 2, ... in append order; a
// truncated log starts with a truncation-point record whose base_lsn
// restores the numbering, so LSNs are stable across truncations and a
// checkpoint manifest can reference its watermark by LSN alone.

#ifndef LSTORE_LOG_REDO_LOG_H_
#define LSTORE_LOG_REDO_LOG_H_

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "log/framed_log.h"

namespace lstore {

enum class LogRecordType : uint8_t {
  kTailAppend = 1,   ///< update/delete tail record (regular tail pages)
  /// One row inserted into table-level tail pages: the form in which
  /// replay delivers each row of a kInsertRun.
  kInsertAppend = 2,
  kCommit = 3,
  kAbort = 4,
  kTruncationPoint = 5, ///< head of a truncated log; carries the LSN base
  kBatch = 6,        ///< one frame holding N records back to back
  /// Consecutive rows one transaction inserted into one range; one LSN
  /// per row. Written by Batch::AddInsertRun only.
  kInsertRun = 7,
};

/// In-memory form of a redo record (replay, tests, commit/abort
/// appends). Append records are written through RedoLog::AppendWriter
/// and insert runs through RedoLog::Batch::AddInsertRun.
struct LogRecord {
  LogRecordType type;
  TxnId txn_id = 0;
  Timestamp commit_time = 0;  // kCommit only
  uint64_t range_id = 0;
  uint32_t seq = 0;           // tail seq (kTailAppend) / slot+1 (kInsertAppend)
  uint32_t base_slot = 0;
  uint32_t backptr = 0;
  uint64_t schema_encoding = 0;
  /// Raw Start Time at append: the writer's txn id, or — for pre-image
  /// snapshot records — the copied start time of the old version.
  uint64_t start_raw = 0;
  ColumnMask mask = 0;              // materialized data columns
  std::vector<Value> values;        // one per set bit of mask, low→high
  uint64_t base_lsn = 0;            // kTruncationPoint only
};

/// Append-only log writer with group commit: appends accumulate in a
/// buffer and are flushed together when a commit record arrives.
class RedoLog {
 private:
  static constexpr size_t kMaxVarintBytes = 10;

  /// Write `v` as a varint at buf[len]; returns the new length.
  static size_t PutVarint(char* buf, size_t len, uint64_t v) {
    while (v >= 0x80) {
      buf[len++] = static_cast<char>((v & 0x7f) | 0x80);
      v >>= 7;
    }
    buf[len++] = static_cast<char>(v);
    return len;
  }

 public:
  using ReplayStats = FramedLog::ScanStats;

  RedoLog() : framed_(&RedoLog::ValidatePayload) {}

  RedoLog(const RedoLog&) = delete;
  RedoLog& operator=(const RedoLog&) = delete;

  /// Receives one record (each row of a run as its own record) with
  /// its LSN.
  using RecordFn = std::function<void(const LogRecord&, uint64_t lsn)>;

  /// Open for appending. An existing file is scanned to restore the
  /// LSN counter; a torn tail (crash mid-write) is truncated away so
  /// new appends are not hidden behind garbage. `replay_fn` (optional)
  /// receives every well-formed record during that same scan, so
  /// restart recovery reads the live log once (Table::RecoverDurable).
  Status Open(const std::string& path, bool truncate,
              const RecordFn& replay_fn = nullptr);
  void Close() { framed_.Close(); }
  bool is_open() const { return framed_.is_open(); }

  /// The one writer of single-row append records (kTailAppend /
  /// kInsertAppend): each field goes as a varint straight into a
  /// bounded stack buffer, so logging a row builds no LogRecord and
  /// allocates nothing. Add one value per set bit of `mask`, low to
  /// high, then hand the writer to Append or Batch::Add.
  class AppendWriter {
   public:
    AppendWriter(LogRecordType type, TxnId txn_id, uint64_t range_id,
                 uint32_t seq, uint32_t base_slot, uint32_t backptr,
                 uint64_t schema_encoding, uint64_t start_raw,
                 ColumnMask mask) {
      buf_[len_++] = static_cast<char>(type);
      for (uint64_t field : {txn_id, range_id, uint64_t{seq},
                             uint64_t{base_slot}, uint64_t{backptr},
                             schema_encoding, start_raw, mask}) {
        Put(field);
      }
    }

    /// Append the next column value. A value that might not fit aborts
    /// instead of overrunning the buffer; only a caller bug (more values
    /// than the mask's 64 bits) gets there.
    void AddValue(Value v) {
      if (len_ > sizeof(buf_) - kMaxVarintBytes) std::abort();
      Put(v);
    }

    std::string_view payload() const { return {buf_, len_}; }

   private:
    void Put(uint64_t v) { len_ = PutVarint(buf_, len_, v); }

    /// Tag, eight header fields, and up to 64 values.
    char buf_[1 + 8 * kMaxVarintBytes + 64 * kMaxVarintBytes];
    size_t len_ = 0;
  };

  /// Append one record; returns its LSN.
  uint64_t Append(const LogRecord& rec);
  uint64_t Append(const AppendWriter& rec) {
    return framed_.Append(rec.payload(), 1);
  }

  /// Streaming builder for a batch frame, [kBatch] then its records
  /// back to back (every record is self-delimiting): records are
  /// encoded as they are added, so the writer never retains N
  /// LogRecords. One Batch becomes ONE log frame (one length/checksum
  /// envelope, one buffer append, one mutex acquisition) — the
  /// amortization behind Insert / InsertBatch / UpdateBatch.
  class Batch {
   public:
    Batch() : body_(1, static_cast<char>(LogRecordType::kBatch)) {}
    void Add(const AppendWriter& rec) {
      body_.append(rec.payload());
      ++lsns_;
    }
    /// Encode rows[0, count), inserted by `txn` into `range_id` at slots
    /// first_slot, first_slot + 1, ..., as one kInsertRun record: the
    /// columns of `mask` of each row, low to high. count >= 1.
    void AddInsertRun(TxnId txn, uint64_t range_id, uint32_t first_slot,
                      const std::vector<Value>* rows, size_t count,
                      ColumnMask mask);
    bool empty() const { return lsns_ == 0; }

   private:
    friend class RedoLog;
    uint64_t lsns_ = 0;  ///< one per record, one per row of a run
    std::string body_;
  };

  /// Append a batch as one frame. Each contained record (each row of a
  /// run) still receives its own LSN; returns the LSN of the last one
  /// (0 when empty). Replay delivers the contained records
  /// individually.
  uint64_t AppendBatch(const Batch& batch);
  uint64_t AppendBatch(const std::vector<LogRecord>& recs);

  /// LSN of the most recently appended record (0 = empty log).
  uint64_t last_lsn() const { return framed_.last_lsn(); }

  /// Flush buffered records to the OS; fsync when `sync`.
  Status Flush(bool sync) { return framed_.Flush(sync); }

  /// Wire registry metrics (obs/metrics.h) into the framed core.
  void set_metrics(const FramedLogMetrics& m) { framed_.set_metrics(m); }

  /// Drop every record with LSN <= watermark (checkpoint truncation,
  /// Section 5.1.3) via the framed core's three-phase low-lock
  /// rewrite. With a `seal` sink (log archiving), the retired prefix
  /// is handed over durably before the truncated log is published.
  Status TruncateTo(uint64_t watermark_lsn,
                    const FramedLog::SealSink& seal = nullptr) {
    return framed_.TruncateTo(watermark_lsn, seal);
  }

  /// Replay every well-formed record, read only: stops cleanly at the
  /// first torn or corrupt frame (crash tail) and leaves the file as
  /// it is. Reads sealed archive segments (point-in-time restore) and
  /// serves tests; a log a table appends to replays through Open. The
  /// extended overload reports each record's LSN and fills `stats`
  /// (recovered-up-to LSN, torn-tail flag).
  static Status Replay(const std::string& path,
                       const std::function<void(const LogRecord&)>& fn);
  static Status Replay(const std::string& path, const RecordFn& fn,
                       ReplayStats* stats);

  /// Serialize / deserialize one single-row payload (any type but
  /// kBatch and kInsertRun; exposed for tests).
  static void EncodePayload(const LogRecord& rec, std::string* out);
  static bool DecodePayload(const char* data, size_t size, LogRecord* rec);

  /// The framed-log codec for redo payloads: full validation (batch
  /// records and run values included) + LSN count. Exposed so the
  /// archive stitcher can scan sealed redo segments.
  static bool ValidatePayload(const char* payload, size_t len,
                              uint64_t* lsn_count);

 private:
  FramedLog framed_;
};

}  // namespace lstore

#endif  // LSTORE_LOG_REDO_LOG_H_
