// Shared framed-log core: the one implementation of the durability
// frame format used by the redo log and the archive stitcher;
// checkpoint, manifest and catalog files (checkpoint/serde.h) write and
// parse their frames with its AppendFrame/ParseFrame.
//
// Frame format: [payload_len varint][payload][crc32c over payload].
// A length of 0 is no frame: it marks the end of the log. Records
// carry implicit LSNs, numbered 1, 2, ... in append order; a frame may
// carry several LSNs (batch frames).
//
// A log is a chain of segment files in one directory,
// <dir>/redo.<first LSN>.log, each continuing the one before: a
// segment's name holds the LSN its first record gets, so LSNs are
// stable however many segments before it are gone. Only the newest
// segment is open for appending. Roll closes it at a watermark (a
// checkpoint's) and starts the next; the closed segments then leave
// whole — deleted, or renamed into the archive — and no log byte is
// ever rewritten or read back.
//
// The core owns: buffered appends written at tracked offsets through
// the file layer (common/file.h), resumed byte-exact after a short
// write (ENOSPC); data syncs; group commit; the roll; open-time LSN
// restore + torn-tail repair; and the frame scan that every reader
// shares. The log's own frame buffer is the only buffer: each
// write-out is one positional write of it. What a payload *means* is
// the wrapper's business: the core calls a Codec to validate a record
// payload and learn how many LSNs it carries — so RedoLog and the
// archive reader cannot diverge on framing or torn-tail behavior.
//
// An open segment keeps its file pre-extended with zeros: a write-out
// that would pass the file's end first writes zeros up to the
// kPreExtend boundary above its frames plus kPreExtend more. Commits
// then overwrite blocks that are already allocated, so their data sync
// (File::SyncData) has no file length or block map to commit to the
// file system journal. The scan reads the zero tail as the end of the
// log (length 0), and a torn tail only where a non-zero byte follows.
// Open cuts the zero tail with a torn one, and Roll and Close trim it,
// so a closed segment ends at its last frame and its bytes are those
// of a log never pre-extended.
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
// (Roll, Close) holds the token, so no data sync runs on a closed
// file. Lock order: the token, then mu_; sync_mu_, which guards the
// token, is never held with another lock.

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
  /// Outcome of scanning a framed file (replay, open repair).
  struct ScanStats {
    uint64_t last_lsn = 0;     ///< LSN of the last well-formed record
    size_t bytes_consumed = 0; ///< file prefix covered by good frames
    bool clean_end = true;     ///< false: stopped at a torn/corrupt frame
  };

  /// Validates one record payload and reports how many LSNs it
  /// carries (1 for plain records, N for batch frames). Returning
  /// false marks the frame malformed: the scan stops there and treats
  /// the rest of the file as a torn tail.
  using Codec =
      std::function<bool(const char* payload, size_t len, uint64_t* lsn_count)>;

  /// Scan callback: one well-formed record frame with its first LSN,
  /// LSN count, and byte span [begin, end) in the scanned data.
  using FrameFn = std::function<void(std::string_view payload,
                                     uint64_t first_lsn, uint64_t lsn_count,
                                     size_t begin, size_t end)>;

  /// One segment file of a log: the LSNs [lo, hi] it carries.
  struct Segment {
    uint64_t lo = 0;  ///< LSN of its first record (named in its file name)
    /// LSN of its last record: its successor's lo - 1 (UINT64_MAX for
    /// the newest live segment, which is still open).
    uint64_t hi = 0;
    std::string path;
  };

  /// Granule of the zero tail an open log keeps past its last frame.
  static constexpr uint64_t kPreExtend = 1024 * 1024;

  explicit FramedLog(Codec codec) : codec_(std::move(codec)) {}
  ~FramedLog() { Close(); }

  FramedLog(const FramedLog&) = delete;
  FramedLog& operator=(const FramedLog&) = delete;

  /// Open the log in `dir` for appending. Segments wholly at or below
  /// `watermark` (retired by a checkpoint, left by a crash before their
  /// deletion) are skipped unread; the rest are scanned in order
  /// (ScanChain) to restore the LSN counter, and the newest opens for
  /// appending, a torn tail (crash mid-write) and its zero tail cut
  /// away so new appends are not hidden behind garbage. A directory
  /// with none starts segment redo.<watermark + 1>.log. A broken chain,
  /// or one starting past watermark + 1, fails with Corruption, and a
  /// read error with IOError, both before any file is changed.
  /// `replay_fn` (optional) receives every well-formed frame during
  /// that same scan, so restart recovery reads the log once:
  /// RedoLog::Open delivers its records through it.
  Status Open(const std::string& dir, uint64_t watermark = 0,
              const FrameFn& replay_fn = nullptr);
  /// Flush and close; the open segment is trimmed to its last frame.
  void Close();
  bool is_open() const { return file_.is_open(); }

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

  /// The open segment's length in frame bytes, buffered ones included:
  /// its content, where the file's size runs ahead by the zero tail.
  uint64_t bytes() const { return bytes_.load(std::memory_order_acquire); }

  /// Wire registry metrics (obs/metrics.h). Must be called before the
  /// log sees concurrent use (handles are read without a lock).
  void set_metrics(const FramedLogMetrics& m) { metrics_ = m; }

  /// Close the open segment at the log's last LSN, returned as
  /// `*watermark`, and start the next one, redo.<watermark + 1>.log.
  /// Holding the sync token, so no write-out or data sync touches
  /// either file meanwhile (appends keep filling the buffer): write the
  /// buffer to the open segment and take the watermark (under mu_),
  /// trim its zero tail and sync its data, create the next segment and
  /// sync the directory, then swap the handle and publish the watermark
  /// as written and synced. The old segment is durable before any byte
  /// reaches the new one, so a crash never leaves a gap in front of a
  /// later segment. A roll with nothing appended since the open
  /// segment began creates no file. An error before the next segment
  /// exists leaves the log appending to the old one; a failed directory
  /// sync after it still swaps, and is returned.
  Status Roll(uint64_t* watermark);

  /// The closed segments of the log in `dir` whose records all lie at
  /// or below `watermark`: what a checkpoint at that watermark retires.
  static Status RetiredSegments(const std::string& dir, uint64_t watermark,
                                std::vector<Segment>* out);

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

  /// Scan `data`, invoking `fn` per good record frame; stops at a
  /// length-0 frame (clean only if every byte from there on is zero)
  /// or at the first torn or corrupt frame. The single source of truth
  /// for frame parsing. `start_lsn` is the LSN reached before `data`
  /// (a segment's lo - 1).
  static void ScanFrames(std::string_view data, const Codec& codec,
                         const FrameFn& fn, ScanStats* stats,
                         uint64_t start_lsn = 0);

  /// Scan a whole file whose first record gets LSN start_lsn + 1
  /// (missing file = NotFound, read error = IOError).
  static Status ScanFile(const std::string& path, const Codec& codec,
                         const FrameFn& fn, ScanStats* stats,
                         uint64_t start_lsn = 0);

  /// Scan `chain` — segments ascending by lo — as one stream. Every
  /// segment but the last must end clean at its hi, and the next must
  /// begin at hi + 1: Corruption otherwise. `*stats` receives the last
  /// segment's scan (which may end torn). Read only.
  static Status ScanChain(const std::vector<Segment>& chain,
                          const Codec& codec, const FrameFn& fn,
                          ScanStats* stats);

  /// The path of the segment of the log in `dir` whose first LSN is
  /// `lo`, and the log's segments, ascending (IOError when `dir` cannot
  /// be listed). Each one's hi is its successor's lo - 1; the newest's
  /// is UINT64_MAX.
  static std::string SegmentPath(const std::string& dir, uint64_t lo);
  static Status ListSegments(const std::string& dir,
                             std::vector<Segment>* out);

  /// Order `segments` by lo and set each one's hi to its successor's
  /// lo - 1 (UINT64_MAX for the last): what each must carry for them to
  /// chain (ScanChain checks it).
  static void Link(std::vector<Segment>* segments);

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

  /// The sync token as a lockable, for whoever must keep data syncs
  /// off file_: lock() waits out a holder's write and sync.
  struct SyncToken {
    FramedLog* log;
    void lock();
    void unlock();
  };

  Codec codec_;
  File file_;
  std::string dir_;
  uint64_t first_lsn_ = 0;     ///< the open segment's lo (token holder)
  std::mutex mu_;
  std::string buffer_;
  uint64_t size_ = 0;          ///< under mu_: written frames + buffer_
  uint64_t allocated_ = 0;     ///< token holder: file length, zero tail too
  std::atomic<uint64_t> bytes_{0};  ///< size_, set under mu_ for bytes()
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
