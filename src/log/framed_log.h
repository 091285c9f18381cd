// Shared framed-log core: the one implementation of the durability
// frame format used by the redo log and the archive stitcher;
// checkpoint, manifest and catalog files (checkpoint/serde.h) write and
// parse their frames with its AppendFrame/ParseFrame.
//
// Frame format: [payload_len varint][payload][crc32c over payload].
// A length of 0 is no frame: it marks the end of the log. Records
// carry implicit LSNs, numbered 1, 2, ... in append order; a frame may
// carry several LSNs (batch frames). A log whose prefix was
// truncated starts with a truncation-point frame (payload tag 5 +
// varint base) restoring the numbering, so LSNs are stable across
// truncations and archival.
//
// The core owns: buffered appends written at tracked offsets through
// the file layer (common/file.h), resumed byte-exact after a short
// write (ENOSPC); data syncs; group commit; open-time LSN restore +
// torn-tail repair; the three-phase low-lock truncation; and the frame
// scan that every reader shares. The log's own frame buffer is the
// only buffer: each write-out is one positional write of it. What a
// payload *means* is the wrapper's business: the core calls a Codec
// to validate a record payload and learn how many LSNs it carries —
// so RedoLog and the archive reader cannot diverge on framing,
// torn-tail, or truncation behavior.
//
// An open log keeps its file pre-extended with zeros: a write-out that
// would pass the file's end first writes zeros up to the kPreExtend
// boundary above its frames plus kPreExtend more. Commits then
// overwrite blocks that are already allocated, so their data sync
// (File::SyncData) has no file length or block map to commit to the
// file system journal. The scan reads the zero tail as the end of the
// log (length 0), and a torn tail only where a non-zero byte follows.
// Open cuts the zero tail with a torn one, TruncateTo publishes a file
// without it, and Close trims it, so a closed log ends at its last
// frame and its bytes are those of a log never pre-extended.
//
// Truncation reads back only what it keeps: the appender records a
// sparse frame index of marks (a frame-aligned offset plus the LSN
// reached there), one per kMarkSpacing appended bytes, seeded by
// Open's scan. TruncateTo starts its scan at the last mark at or below
// the watermark, so it reads the retained tail plus < kMarkSpacing
// retired bytes, never the whole retired prefix.
//
// Truncation can archive instead of delete: TruncateTo accepts a
// SealSink that receives the retired prefix as a self-describing
// framed byte string (leading truncation point + the retired frames),
// which is exactly the content of an archive segment — replayable by
// the same scan as a live log.
//
// Group commit lives here too (Section 5.1.3: a commit is durable once
// its records are on disk). Every write-out publishes the LSN it
// reached, written and, with an fsync, durable. Sync(lsn) returns at
// once when an earlier write-out already covered `lsn`; otherwise one
// caller at a time (the sync token) writes the whole buffer under mu_,
// releases mu_, syncs (File::SyncData) holding only the token, and
// publishes, so every caller that appended before that write shares
// its one sync. The sync is pipelined with appends: callers append
// while it runs, wait for the token, and the next holder's one write
// and sync covers all of them. Whoever swaps or closes the descriptor
// (TruncateTo, Close) holds the token, so no data sync runs on a
// closed file. Lock order: truncate_mu_, then the token, then mu_;
// sync_mu_, which guards the token, is never held with another lock.

#ifndef LSTORE_LOG_FRAMED_LOG_H_
#define LSTORE_LOG_FRAMED_LOG_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/file.h"
#include "common/status.h"
#include "obs/metrics.h"

namespace lstore {

class Heartbeat;

/// Registry handles a framed log records into (all optional): frames /
/// bytes appended, data syncs, append/flush latencies, and the
/// group-commit handles every log of a registry shares. A default-constructed
/// struct (all null) records nothing.
struct FramedLogMetrics {
  Counter* appends = nullptr;       ///< record frames appended
  Counter* append_bytes = nullptr;  ///< framed bytes appended
  Counter* fsyncs = nullptr;        ///< commit-path data syncs
  Histogram* append_ns = nullptr;   ///< Append latency (lock + buffer)
  Histogram* flush_ns = nullptr;    ///< write (+ sync) latency
  Counter* truncate_read_bytes = nullptr;  ///< bytes TruncateTo read back
  Histogram* sync_wait_ns = nullptr;  ///< Sync: wait before the covering write
  Histogram* batch_size = nullptr;    ///< Sync: callers one write released
  Counter* batches = nullptr;         ///< Sync: write-outs made
  /// Span of Sync's write window on a traced caller's timeline.
  const char* sync_span = nullptr;

  /// The handles of the log `prefix` ("lstore_redo") in `registry`,
  /// described as `label` ("Redo-log"), plus the shared group-commit
  /// ones; `sync_span` must be a string literal.
  static FramedLogMetrics In(MetricsRegistry* registry,
                             const std::string& prefix,
                             const std::string& label, const char* sync_span);
};

class FramedLog {
 public:
  /// Outcome of scanning a framed file (replay, open repair, truncate).
  struct ScanStats {
    uint64_t base_lsn = 0;     ///< LSN numbering base (truncation point)
    uint64_t last_lsn = 0;     ///< LSN of the last well-formed record
    size_t bytes_consumed = 0; ///< file prefix covered by good frames
    bool clean_end = true;     ///< false: stopped at a torn/corrupt frame
  };

  /// Validates one record payload and reports how many LSNs it
  /// carries (1 for plain records, N for batch frames). Returning
  /// false marks the frame malformed: the scan stops there and treats
  /// the rest of the file as a torn tail. Truncation-point frames are
  /// handled by the core and never reach the codec.
  using Codec =
      std::function<bool(const char* payload, size_t len, uint64_t* lsn_count)>;

  /// Scan callback: one well-formed record frame with its first LSN,
  /// LSN count, and byte span [begin, end) in the scanned data.
  using FrameFn = std::function<void(std::string_view payload,
                                     uint64_t first_lsn, uint64_t lsn_count,
                                     size_t begin, size_t end)>;

  /// Archive sink for TruncateTo: receives the retired prefix covering
  /// LSNs [lo, hi] as a self-describing framed byte string (leading
  /// truncation point + retired frames). Must make the bytes durable
  /// before returning OK; an error aborts the truncation, leaving the
  /// log intact (retried at the next checkpoint).
  using SealSink =
      std::function<Status(uint64_t lo, uint64_t hi, std::string_view bytes)>;

  /// Payload tag of a truncation-point frame (shared by every log).
  static constexpr uint8_t kTruncationPointTag = 5;

  /// Appended bytes between two truncation marks: a truncation reads
  /// at most this much of the retired prefix, for 16 B of index each.
  static constexpr uint64_t kMarkSpacing = 64 * 1024;

  /// Granule of the zero tail an open log keeps past its last frame.
  static constexpr uint64_t kPreExtend = 1024 * 1024;

  explicit FramedLog(Codec codec) : codec_(std::move(codec)) {}
  ~FramedLog() { Close(); }

  FramedLog(const FramedLog&) = delete;
  FramedLog& operator=(const FramedLog&) = delete;

  /// Open for appending. An existing file is scanned to restore the
  /// LSN counter; a torn tail (crash mid-write) and a zero tail are
  /// truncated away so new appends are not hidden behind garbage. A
  /// read error fails the open and leaves the file as it was.
  /// `replay_fn` (optional) receives every well-formed frame during
  /// that same scan, so restart recovery reads the file once:
  /// RedoLog::Open delivers its records through it.
  Status Open(const std::string& path, bool truncate,
              const FrameFn& replay_fn = nullptr);
  /// Flush and close; the file is trimmed to its last written frame.
  void Close();
  bool is_open() const { return file_.is_open(); }
  const std::string& path() const { return path_; }

  /// Append one framed payload carrying `lsn_count` LSNs (buffered).
  /// Returns the last LSN it received (0 when lsn_count == 0).
  uint64_t Append(std::string_view payload, uint64_t lsn_count);

  /// Flush every frame appended so far to the OS; sync when `sync`.
  Status Flush(bool sync) { return Sync(last_lsn(), sync); }

  /// Group commit: return once every record up to `lsn` is written to
  /// the OS and, with `fsync`, durable (File::SyncData). Returns at
  /// once when an earlier write-out covered `lsn`; otherwise waits for
  /// the sync token and writes (and syncs) the whole buffer, covering
  /// every caller that appended before. A failed write publishes
  /// nothing: each waiter it did not cover writes again and returns its
  /// own result.
  Status Sync(uint64_t lsn, bool fsync);

  /// The heartbeat marked busy during each of Sync's write-outs. Set
  /// before the log sees concurrent use.
  void set_group_commit(Heartbeat* busy) { busy_ = busy; }

  /// LSN of the most recently appended record (0 = empty log).
  uint64_t last_lsn() const {
    return last_lsn_.load(std::memory_order_acquire);
  }

  /// The log's length in frame bytes, buffered ones included: its
  /// content, where the open file's size runs ahead by the zero tail.
  uint64_t bytes() const { return bytes_.load(std::memory_order_acquire); }

  /// Wire registry metrics (obs/metrics.h). Must be called before the
  /// log sees concurrent use (handles are read without a lock).
  void set_metrics(const FramedLogMetrics& m) { metrics_ = m; }

  /// Drop every record with LSN <= watermark: the retained tail is
  /// republished behind a truncation-point record with WriteFileAtomic
  /// (a read or write error leaves the log as it was). The scan for the
  /// cut starts at the last mark at or below the watermark, so it reads
  /// the retained tail plus < kMarkSpacing retired bytes. That scan and the write of the
  /// retained tail run WITHOUT the log mutex, so concurrent appends are
  /// stalled only for the O(appends-since-scan) handle swap. A batch
  /// frame straddling the watermark is retained whole; the truncation
  /// point's LSN base backs up accordingly so numbering stays stable.
  ///
  /// With a `seal` sink, the scan reads the whole prefix (the sink
  /// needs its bytes), which is handed over (durably) BEFORE the
  /// truncated log is published — archival turns the deletion into a
  /// move, and a crash between the two leaves at worst an overlapping
  /// segment that the next seal supersedes.
  Status TruncateTo(uint64_t watermark_lsn, const SealSink& seal = nullptr);

  // --- static framing helpers ----------------------------------------------

  /// Frame `type` + `payload` ([len][type payload][crc32c]) onto
  /// `out`. Log records leave `type` empty; checkpoint, manifest and
  /// catalog frames (checkpoint/serde.h) put their type byte there.
  static void AppendFrame(std::string* out, std::string_view payload,
                          std::string_view type = {});

  /// Parse the frame at `*pos` of `data` (every log scan and every
  /// checkpoint, manifest and catalog read goes through it): true with
  /// `*payload` set and `*pos` past the frame; false, `*pos` unmoved,
  /// at a torn or checksum-failing one.
  static bool ParseFrame(std::string_view data, size_t* pos,
                         std::string_view* payload);

  /// A complete truncation-point frame restoring `base_lsn`.
  static std::string TruncationPointFrame(uint64_t base_lsn);

  /// Scan `data`, invoking `fn` per good record frame; stops at a
  /// length-0 frame (clean only if every byte from there on is zero)
  /// or at the first torn or corrupt frame. The single source of truth
  /// for frame parsing. `start_lsn` is the LSN reached before `data`
  /// (non-zero when the scan starts mid-log, at a mark).
  static void ScanFrames(std::string_view data, const Codec& codec,
                         const FrameFn& fn, ScanStats* stats,
                         uint64_t start_lsn = 0);

  /// Scan a whole file (missing file = NotFound, read error = IOError).
  static Status ScanFile(const std::string& path, const Codec& codec,
                         const FrameFn& fn, ScanStats* stats);

  /// LSN base of the file's leading truncation-point frame (0 when
  /// the file is missing, empty, or starts with a record frame).
  static uint64_t ReadBaseLsn(const std::string& path);

 private:
  /// Write `buffer_` at its file offset, size_ - buffer_.size(), first
  /// pre-extending the file when the write would pass its end (caller
  /// holds mu_).
  Status FlushBufferLocked();

  /// Push the accumulated append/byte tallies to the registry
  /// counters (caller holds mu_). Appends tally into plain members on
  /// the mutex-protected path and publish every 64 frames and at every
  /// flush, so a sub-microsecond append never pays sharded-atomic
  /// traffic of its own.
  void PublishPendingLocked();

  /// Mark the frame boundary at `size_`, where the log has reached
  /// `lsn`, once kMarkSpacing bytes were appended since the last mark
  /// (caller holds mu_, or has the log to itself, as Open does).
  void MaybeMarkLocked(uint64_t lsn);

  /// The sync token as a lockable, for whoever must keep data syncs
  /// off file_: lock() waits out a holder's write and sync.
  struct SyncToken {
    FramedLog* log;
    void lock();
    void unlock();
  };

  /// A frame-aligned log offset and the last LSN before it.
  struct Mark {
    uint64_t offset;
    uint64_t lsn;
  };

  Codec codec_;
  File file_;
  std::string path_;
  std::mutex mu_;
  /// Serializes whole truncations against each other (mu_ still
  /// protects every write through file_ and every buffer_ touch).
  /// Ordering: truncate_mu_ before the sync token before mu_.
  std::mutex truncate_mu_;
  std::string buffer_;
  uint64_t size_ = 0;          ///< under mu_: written frames + buffer_
  uint64_t allocated_ = 0;     ///< under mu_: file length, zero tail included
  std::atomic<uint64_t> bytes_{0};  ///< size_, set under mu_ for bytes()
  std::vector<Mark> marks_;    ///< under mu_: ascending, all <= size_
  std::atomic<uint64_t> last_lsn_{0};
  std::atomic<uint64_t> written_lsn_{0};  ///< every LSN <= it is in the OS
  std::atomic<uint64_t> synced_lsn_{0};   ///< every LSN <= it is durable
  /// The sync token and its waiters. The token's holder writes under
  /// mu_ and syncs file_ holding neither mutex.
  std::mutex sync_mu_;
  std::condition_variable sync_cv_;
  bool syncing_ = false;      ///< under sync_mu_: the token is held
  SyncToken token_{this};
  std::vector<uint64_t> waiters_;  ///< under sync_mu_: LSNs waiting on it
  uint64_t write_t0_ = 0;     ///< under sync_mu_: last write window, for
  uint64_t write_end_ = 0;    ///< the spans of the callers it covered
  std::atomic<uint64_t> late_riders_{0};  ///< covered on arrival
  Heartbeat* busy_ = nullptr;
  FramedLogMetrics metrics_;
  uint64_t pending_appends_ = 0;      ///< under mu_, batched to metrics_
  uint64_t pending_append_bytes_ = 0; ///< under mu_, batched to metrics_
};

}  // namespace lstore

#endif  // LSTORE_LOG_FRAMED_LOG_H_
