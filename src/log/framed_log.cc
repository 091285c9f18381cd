#include "log/framed_log.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <filesystem>

#include "common/checksum.h"
#include "obs/health.h"
#include "obs/span.h"
#include "storage/compression/varint.h"

namespace lstore {

namespace {

constexpr char kSegmentPrefix[] = "redo.";
constexpr char kSegmentSuffix[] = ".log";

}  // namespace

FramedLogMetrics FramedLogMetrics::In(MetricsRegistry* registry,
                                      const std::string& prefix,
                                      const std::string& label,
                                      const char* sync_span) {
  FramedLogMetrics m;
  m.appends = registry->GetCounter(prefix + "_appends_total",
                                   label + " record frames appended");
  m.append_bytes = registry->GetCounter(prefix + "_append_bytes_total",
                                        label + " framed bytes appended");
  m.fsyncs = registry->GetCounter(prefix + "_fsyncs_total",
                                  label + " commit-path data syncs");
  m.append_ns = registry->GetHistogram(prefix + "_append_ns",
                                       label + " append latency (ns)");
  m.flush_ns = registry->GetHistogram(prefix + "_flush_ns",
                                      label + " flush latency (ns)");
  m.sync_wait_ns = registry->GetHistogram(
      "lstore_commit_queue_wait_ns",
      "Group-commit wait before the log write covering a sync (ns)");
  m.batch_size =
      registry->GetHistogram("lstore_group_commit_batch_size",
                             "Log syncs one group-commit write released");
  m.batches = registry->GetCounter("lstore_group_commit_batches_total",
                                   "Group-commit log writes");
  m.sync_span = sync_span;
  return m;
}

// ---------------------------------------------------------------------------
// Static framing helpers
// ---------------------------------------------------------------------------

void FramedLog::AppendFrame(std::string* out, std::string_view payload,
                            std::string_view type) {
  assert(type.size() + payload.size() > 0);  // length 0 ends a log
  PutVarint64(out, type.size() + payload.size());
  const size_t body = out->size();
  out->append(type);
  out->append(payload);
  uint32_t crc = Crc32c(out->data() + body, out->size() - body);
  out->append(reinterpret_cast<const char*>(&crc), sizeof(crc));
}

bool FramedLog::ParseFrame(std::string_view data, size_t* pos,
                           std::string_view* payload) {
  size_t p = *pos;
  uint64_t len;
  if (!GetVarint64(data.data(), data.size(), &p, &len)) return false;
  size_t remain = data.size() - p;
  // Overflow-safe: a torn tail can present an absurd length whose
  // naive `p + len` bound check would wrap around.
  if (remain < sizeof(uint32_t) || len > remain - sizeof(uint32_t)) {
    return false;
  }
  uint32_t stored;
  std::memcpy(&stored, data.data() + p + len, sizeof(stored));
  if (Crc32c(data.data() + p, len) != stored) return false;
  *payload = data.substr(p, len);
  *pos = p + len + sizeof(uint32_t);
  return true;
}

void FramedLog::ScanFrames(std::string_view data, const Codec& codec,
                           const FrameFn& fn, ScanStats* stats,
                           uint64_t start_lsn) {
  size_t pos = 0;
  uint64_t lsn = start_lsn;
  stats->last_lsn = start_lsn;
  stats->clean_end = true;
  while (pos < data.size()) {
    if (data[pos] == 0) {
      // Length 0: the end of the log. Past it lies the zero tail of an
      // open log; any other byte there is a torn tail.
      stats->clean_end = data.find_first_not_of('\0', pos) == data.npos;
      break;
    }
    size_t frame_start = pos;
    std::string_view payload;
    if (!ParseFrame(data, &pos, &payload)) {
      stats->clean_end = false;  // torn or corrupt frame
      break;
    }
    uint64_t count = 0;
    if (!codec(payload.data(), payload.size(), &count)) {  // malformed
      stats->clean_end = false;
      pos = frame_start;
      break;
    }
    if (fn) fn(payload, lsn + 1, count, frame_start, pos);
    lsn += count;
    if (count > 0) stats->last_lsn = lsn;
  }
  stats->bytes_consumed = pos;
}

Status FramedLog::ScanFile(const std::string& path, const Codec& codec,
                           const FrameFn& fn, ScanStats* stats,
                           uint64_t start_lsn) {
  std::string data;
  LSTORE_RETURN_IF_ERROR(ReadFile(path, &data));
  ScanStats local;
  ScanFrames(data, codec, fn, stats != nullptr ? stats : &local, start_lsn);
  return Status::OK();
}

Status FramedLog::ScanChain(const std::vector<Segment>& chain,
                            const Codec& codec, const FrameFn& fn,
                            ScanStats* stats) {
  for (size_t i = 0; i < chain.size(); ++i) {
    const Segment& seg = chain[i];
    LSTORE_RETURN_IF_ERROR(ScanFile(seg.path, codec, fn, stats, seg.lo - 1));
    if (i + 1 < chain.size() &&
        (!stats->clean_end || stats->last_lsn != seg.hi ||
         seg.hi + 1 != chain[i + 1].lo)) {
      return Status::Corruption("log segment " + seg.path +
                                " does not end where the next begins");
    }
  }
  return Status::OK();
}

std::string FramedLog::SegmentPath(const std::string& dir, uint64_t lo) {
  return dir + "/" + kSegmentPrefix + std::to_string(lo) + kSegmentSuffix;
}

Status FramedLog::ListSegments(const std::string& dir,
                               std::vector<Segment>* out) {
  out->clear();
  constexpr size_t kPrefix = sizeof(kSegmentPrefix) - 1;
  constexpr size_t kSuffix = sizeof(kSegmentSuffix) - 1;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    Segment seg;
    if (name.size() <= kPrefix + kSuffix ||
        name.compare(0, kPrefix, kSegmentPrefix) != 0 ||
        name.compare(name.size() - kSuffix, kSuffix, kSegmentSuffix) != 0 ||
        !ParseDecimal(std::string_view(name).substr(
                          kPrefix, name.size() - kPrefix - kSuffix),
                      &seg.lo) ||
        seg.lo == 0) {
      continue;
    }
    seg.path = entry.path().string();
    out->push_back(std::move(seg));
  }
  if (ec) return Status::IOError("cannot list log directory: " + dir);
  Link(out);
  return Status::OK();
}

void FramedLog::Link(std::vector<Segment>* segments) {
  std::vector<Segment>& s = *segments;
  std::sort(s.begin(), s.end(),
            [](const Segment& a, const Segment& b) { return a.lo < b.lo; });
  for (size_t i = 0; i < s.size(); ++i) {
    s[i].hi = i + 1 < s.size() ? s[i + 1].lo - 1 : UINT64_MAX;
  }
}

Status FramedLog::RetiredSegments(const std::string& dir, uint64_t watermark,
                                  std::vector<Segment>* out) {
  LSTORE_RETURN_IF_ERROR(ListSegments(dir, out));
  out->erase(std::find_if(out->begin(), out->end(),
                          [watermark](const Segment& s) {
                            return s.hi > watermark;
                          }),
             out->end());
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Appender
// ---------------------------------------------------------------------------

Status FramedLog::Open(const std::string& dir, uint64_t watermark,
                       const FrameFn& replay_fn) {
  Close();
  std::vector<Segment> chain;
  LSTORE_RETURN_IF_ERROR(ListSegments(dir, &chain));
  chain.erase(chain.begin(),
              std::find_if(chain.begin(), chain.end(),
                           [watermark](const Segment& s) {
                             return s.hi > watermark;
                           }));
  const bool fresh = chain.empty();
  if (fresh) {
    chain.push_back(
        Segment{watermark + 1, UINT64_MAX, SegmentPath(dir, watermark + 1)});
  } else if (chain.front().lo > watermark + 1) {
    return Status::Corruption("log records after LSN " +
                              std::to_string(watermark) + " are missing");
  }
  // Restore the LSN counter from the existing records and find the
  // newest segment's torn tail: appending after garbage would hide the
  // new records from every future replay. A read error fails the open:
  // taken for end-of-file, it would make that repair cut acknowledged
  // records off the log.
  ScanStats stats;
  stats.last_lsn = watermark;
  if (!fresh) {
    LSTORE_RETURN_IF_ERROR(ScanChain(chain, codec_, replay_fn, &stats));
  }
  dir_ = dir;
  first_lsn_ = chain.back().lo;
  last_lsn_.store(stats.last_lsn, std::memory_order_release);
  written_lsn_.store(0, std::memory_order_release);
  synced_lsn_.store(0, std::memory_order_release);
  size_ = stats.bytes_consumed;
  allocated_ = size_;
  bytes_.store(size_, std::memory_order_release);
  LSTORE_RETURN_IF_ERROR(
      file_.Open(chain.back().path, File::Mode::kReadWriteCreate));
  // Appends continue at size_: cut the torn or zero tail beyond it. A
  // new segment's name must survive a crash before its first sync.
  Status s = file_.Truncate(size_);
  if (s.ok() && fresh) s = SyncDir(dir);
  if (!s.ok()) file_.Close();
  return s;
}

void FramedLog::Close() {
  if (file_.is_open()) {
    Flush(false);
    // Trim the zero tail. Should the trim fail, the next Open cuts it.
    std::lock_guard<SyncToken> token(token_);
    std::lock_guard<std::mutex> g(mu_);
    const uint64_t end = size_ - buffer_.size();
    if (allocated_ > end && file_.Truncate(end).ok()) allocated_ = end;
    file_.Close();
  }
}

uint64_t FramedLog::Append(std::string_view payload, uint64_t lsn_count) {
  if (lsn_count == 0) return 0;
  // Time 1 in 64 appends into the histogram: a clock read costs as
  // much as the append itself, and the latency histogram only needs a
  // sample of the distribution, not every point. A traced request
  // still times every one of its appends (its timeline has to be
  // complete): the Stage reads the clock for its span regardless.
  Histogram* sampled = nullptr;
  if (metrics_.append_ns != nullptr) {
    thread_local uint64_t sample_tick = 0;
    if ((sample_tick++ & 63) == 0) sampled = metrics_.append_ns;
  }
  Stage stage(sampled, "log_append");
  uint64_t last;
  {
    std::lock_guard<std::mutex> g(mu_);
    size_t before = buffer_.size();
    AppendFrame(&buffer_, payload);
    size_t framed = buffer_.size() - before;
    // Load+store, NOT fetch_add(n)+n: every writer holds mu_ (readers
    // are lock-free), and gcc 12 miscompiles the fetch_add form with a
    // variable operand (the xadd clobbers the addend register,
    // yielding old+old).
    last = last_lsn_.load(std::memory_order_relaxed) + lsn_count;
    last_lsn_.store(last, std::memory_order_release);
    size_ += framed;
    bytes_.store(size_, std::memory_order_release);
    ++pending_appends_;
    pending_append_bytes_ += framed;
    if (pending_appends_ >= 64) PublishPendingLocked();
  }
  return last;
}

void FramedLog::PublishPendingLocked() {
  if (pending_appends_ == 0) return;
  if (metrics_.appends != nullptr) metrics_.appends->Add(pending_appends_);
  if (metrics_.append_bytes != nullptr) {
    metrics_.append_bytes->Add(pending_append_bytes_);
  }
  pending_appends_ = 0;
  pending_append_bytes_ = 0;
}

Status FramedLog::FlushBufferLocked() {
  if (!file_.is_open()) return Status::IOError("log not open");
  if (buffer_.empty()) return Status::OK();
  // Extend before writing past the file's end, so the frames land in
  // blocks that are already allocated. A short extension writes no
  // frame byte, and the next write-out extends from where it stopped.
  if (size_ > allocated_) {
    const uint64_t end =
        (size_ + kPreExtend - 1) / kPreExtend * kPreExtend + kPreExtend;
    size_t zeroed = 0;
    Status s = file_.WriteZerosAt(allocated_, end - allocated_, &zeroed);
    allocated_ += zeroed;
    if (!s.ok()) return s;
  }
  // Drop exactly the written prefix on a short write (ENOSPC): the file
  // holds a partial frame, and a later retry must continue at the same
  // byte — re-writing the whole buffer after the partial prefix would
  // corrupt the log mid-file and take every LATER (acknowledged) record
  // down with it at the next open's tail scan.
  size_t written = 0;
  Status s = file_.WriteAt(size_ - buffer_.size(), buffer_, &written);
  buffer_.erase(0, written);
  return s;
}

void FramedLog::SyncToken::lock() {
  std::unique_lock<std::mutex> lk(log->sync_mu_);
  log->sync_cv_.wait(lk, [this] { return !log->syncing_; });
  log->syncing_ = true;
}

void FramedLog::SyncToken::unlock() {
  std::lock_guard<std::mutex> lk(log->sync_mu_);
  log->syncing_ = false;
  log->sync_cv_.notify_all();
}

Status FramedLog::Sync(uint64_t lsn, bool fsync) {
  const std::atomic<uint64_t>& mark = fsync ? synced_lsn_ : written_lsn_;
  auto covered = [&] { return mark.load(std::memory_order_acquire) >= lsn; };
  if (covered()) {
    late_riders_.fetch_add(1, std::memory_order_relaxed);
    return Status::OK();
  }
  const uint64_t trace = TraceContext::Current();
  const uint64_t arrived = Stage::Now();
  std::unique_lock<std::mutex> lk(sync_mu_);
  waiters_.push_back(lsn);
  sync_cv_.wait(lk, [&] { return !syncing_ || covered(); });
  waiters_.erase(std::find(waiters_.begin(), waiters_.end(), lsn));
  if (covered()) {
    // Another caller's write covered this one: its window is this
    // caller's flush, and the time up to it this caller's wait.
    const uint64_t t1 = std::max(arrived, write_end_);
    const uint64_t t0 = std::clamp(write_t0_, arrived, t1);
    Stage::Record(metrics_.sync_wait_ns, "gc_queue_wait", trace, arrived,
                  t0 - arrived);
    Stage::Record(nullptr, metrics_.sync_span, trace, t0, t1 - t0);
    return Status::OK();
  }

  // Take the token: write the whole buffer under mu_, then sync it
  // holding the token only. Callers keep appending during the sync and
  // wait for the token, so the next holder's one write covers them all.
  syncing_ = true;
  lk.unlock();
  HeartbeatWorkScope work(busy_);
  const uint64_t t0 = Stage::Now();
  Stage::Record(metrics_.sync_wait_ns, "gc_queue_wait", trace, arrived,
                t0 - arrived);
  std::unique_lock<std::mutex> g(mu_);
  PublishPendingLocked();  // a write-out = a snapshot-visible point
  const uint64_t reached = last_lsn_.load(std::memory_order_relaxed);
  Status s = FlushBufferLocked();
  if (s.ok()) written_lsn_.store(reached, std::memory_order_release);
  g.unlock();
  if (s.ok() && fsync) {
    if (metrics_.fsyncs != nullptr) metrics_.fsyncs->Add(1);
    s = file_.SyncData();
    if (s.ok()) synced_lsn_.store(reached, std::memory_order_release);
  }
  const uint64_t t1 = Stage::Now();
  Stage::Record(metrics_.flush_ns, metrics_.sync_span, trace, t0, t1 - t0);

  // The waiters this write released are those it reached; the others
  // appended during the sync and wait for the next holder.
  lk.lock();
  syncing_ = false;
  write_t0_ = t0;
  write_end_ = t1;
  if (s.ok()) {
    if (metrics_.batches != nullptr) metrics_.batches->Add(1);
    if (metrics_.batch_size != nullptr) {
      metrics_.batch_size->Record(
          1 + std::count_if(waiters_.begin(), waiters_.end(),
                            [reached](uint64_t w) { return w <= reached; }) +
          late_riders_.exchange(0, std::memory_order_relaxed));
    }
  }
  lk.unlock();
  sync_cv_.notify_all();
  return s;
}

Status FramedLog::Roll(uint64_t* watermark) {
  std::lock_guard<SyncToken> token(token_);
  uint64_t end = 0;
  {
    std::lock_guard<std::mutex> g(mu_);
    PublishPendingLocked();
    LSTORE_RETURN_IF_ERROR(FlushBufferLocked());
    *watermark = last_lsn_.load(std::memory_order_relaxed);
    end = size_;
  }
  written_lsn_.store(*watermark, std::memory_order_release);
  if (*watermark < first_lsn_) return Status::OK();  // nothing to close
  // The token keeps every write-out off file_, so allocated_ and the
  // old segment are this caller's until the swap. Should the trim
  // fail, the zero tail reads as the segment's clean end.
  if (allocated_ > end && file_.Truncate(end).ok()) allocated_ = end;
  LSTORE_RETURN_IF_ERROR(file_.SyncData());
  synced_lsn_.store(*watermark, std::memory_order_release);

  const std::string next_path = SegmentPath(dir_, *watermark + 1);
  File next;
  LSTORE_RETURN_IF_ERROR(next.Open(next_path, File::Mode::kCreateTruncate));
  // The next segment exists: the log continues there even if the
  // directory sync fails, and that failure is the result.
  Status s = SyncDir(dir_);
  std::lock_guard<std::mutex> g(mu_);
  file_ = std::move(next);
  first_lsn_ = *watermark + 1;
  size_ = buffer_.size();
  allocated_ = 0;
  bytes_.store(size_, std::memory_order_release);
  return s;
}

}  // namespace lstore
