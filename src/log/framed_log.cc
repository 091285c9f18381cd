#include "log/framed_log.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <iterator>

#include "common/checksum.h"
#include "obs/health.h"
#include "obs/span.h"
#include "storage/compression/varint.h"

namespace lstore {

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
  m.truncate_read_bytes =
      registry->GetCounter(prefix + "_truncate_read_bytes_total",
                           label + " bytes read back by checkpoint truncation");
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

std::string FramedLog::TruncationPointFrame(uint64_t base_lsn) {
  std::string payload;
  payload.push_back(static_cast<char>(kTruncationPointTag));
  PutVarint64(&payload, base_lsn);
  std::string frame;
  AppendFrame(&frame, payload);
  return frame;
}

void FramedLog::ScanFrames(std::string_view data, const Codec& codec,
                           const FrameFn& fn, ScanStats* stats,
                           uint64_t start_lsn) {
  size_t pos = 0;
  uint64_t lsn = start_lsn;
  stats->base_lsn = start_lsn;
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
    if (!payload.empty() &&
        static_cast<uint8_t>(payload[0]) == kTruncationPointTag) {
      size_t sub = 1;
      uint64_t base = 0;
      if (!GetVarint64(payload.data(), payload.size(), &sub, &base) ||
          sub != payload.size()) {
        stats->clean_end = false;
        pos = frame_start;
        break;
      }
      lsn = base;
      stats->base_lsn = base;
      stats->last_lsn = lsn;
      continue;
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
                           const FrameFn& fn, ScanStats* stats) {
  std::string data;
  LSTORE_RETURN_IF_ERROR(ReadFile(path, &data));
  ScanStats local;
  ScanFrames(data, codec, fn, stats != nullptr ? stats : &local);
  return Status::OK();
}

uint64_t FramedLog::ReadBaseLsn(const std::string& path) {
  File f;
  uint64_t size = 0;
  std::string head;
  if (!f.Open(path, File::Mode::kRead).ok() || !f.Size(&size).ok() ||
      !f.ReadAt(0, std::min<uint64_t>(size, 32), &head).ok()) {
    return 0;
  }
  size_t pos = 0;
  uint64_t len;
  if (!GetVarint64(head.data(), head.size(), &pos, &len) || len == 0 ||
      len > head.size() - pos) {
    return 0;
  }
  if (static_cast<uint8_t>(head[pos]) != kTruncationPointTag) return 0;
  size_t sub = pos + 1;
  uint64_t base = 0;
  if (!GetVarint64(head.data(), pos + len, &sub, &base)) return 0;
  return base;
}

// ---------------------------------------------------------------------------
// Appender
// ---------------------------------------------------------------------------

Status FramedLog::Open(const std::string& path, bool truncate,
                       const FrameFn& replay_fn) {
  Close();
  path_ = path;
  last_lsn_.store(0, std::memory_order_release);
  written_lsn_.store(0, std::memory_order_release);
  synced_lsn_.store(0, std::memory_order_release);
  size_ = 0;
  marks_.clear();
  if (!truncate) {
    // Restore the LSN counter and the truncation marks from the
    // existing records and repair a torn tail: appending after garbage
    // would hide the new records from every future replay. A read
    // error fails the open: taken for end-of-file, it would make that
    // repair cut acknowledged records off the log.
    std::string data;
    Status read = ReadFile(path, &data);
    if (!read.ok() && !read.IsNotFound()) return read;
    if (!data.empty()) {
      ScanStats stats;
      ScanFrames(
          data, codec_,
          [&](std::string_view payload, uint64_t first_lsn, uint64_t count,
              size_t begin, size_t end) {
            if (replay_fn) replay_fn(payload, first_lsn, count, begin, end);
            size_ = end;
            MaybeMarkLocked(first_lsn - 1 + count);
          },
          &stats);
      size_ = stats.bytes_consumed;
      last_lsn_.store(stats.last_lsn, std::memory_order_release);
    }
  }
  allocated_ = size_;
  bytes_.store(size_, std::memory_order_release);
  LSTORE_RETURN_IF_ERROR(file_.Open(
      path, truncate ? File::Mode::kCreateTruncate
                     : File::Mode::kReadWriteCreate));
  // Appends continue at size_: cut the torn or zero tail beyond it.
  Status s = file_.Truncate(size_);
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
    MaybeMarkLocked(last);
    ++pending_appends_;
    pending_append_bytes_ += framed;
    if (pending_appends_ >= 64) PublishPendingLocked();
  }
  return last;
}

void FramedLog::MaybeMarkLocked(uint64_t lsn) {
  uint64_t prev = marks_.empty() ? 0 : marks_.back().offset;
  if (size_ - prev >= kMarkSpacing) marks_.push_back(Mark{size_, lsn});
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

Status FramedLog::TruncateTo(uint64_t watermark_lsn, const SealSink& seal) {
  std::lock_guard<std::mutex> tg(truncate_mu_);

  // Phase 1 (mutex, O(pending appends)): make every appended frame
  // file-resident, snapshot the frame-aligned log length, and pick
  // where the scan starts: the last mark at or below the watermark
  // (every frame before it is retired), or offset 0 when the retired
  // bytes go to a seal sink.
  uint64_t snap_size = 0;
  Mark from{0, 0};
  {
    std::lock_guard<std::mutex> g(mu_);
    LSTORE_RETURN_IF_ERROR(FlushBufferLocked());
    snap_size = size_;
    if (seal == nullptr) {
      auto after = std::upper_bound(
          marks_.begin(), marks_.end(), watermark_lsn,
          [](uint64_t lsn, const Mark& m) { return lsn < m.lsn; });
      if (after != marks_.begin()) from = *std::prev(after);
    }
  }

  // Phase 2 (NO mutex — appends proceed): scan [from, snapshot end),
  // locate the byte offset of the first frame that must survive, and
  // write the new head (truncation point + retained bytes) to a temp
  // file. Frames appended after phase 1 are untouched: they live in
  // the old file beyond snap_size and are copied in phase 3.
  std::string data;
  LSTORE_RETURN_IF_ERROR(
      file_.ReadAt(from.offset, snap_size - from.offset, &data));
  if (metrics_.truncate_read_bytes != nullptr) {
    metrics_.truncate_read_bytes->Add(data.size());
  }
  ScanStats stats;
  size_t cut = 0;
  uint64_t base_lsn = 0;
  bool found_cut = false;
  uint64_t prefix_first_lsn = 0;  ///< first LSN scanned (the file's, if seal)
  ScanFrames(
      data, codec_,
      [&](std::string_view, uint64_t first_lsn, uint64_t count, size_t begin,
          size_t) {
        if (count == 0) return;
        if (prefix_first_lsn == 0) prefix_first_lsn = first_lsn;
        if (!found_cut && first_lsn + count - 1 > watermark_lsn) {
          // A batch frame straddling the watermark is kept whole; the
          // LSN base backs up to renumber its first record correctly.
          found_cut = true;
          cut = begin;
          base_lsn = first_lsn - 1;
        }
      },
      &stats, from.lsn);
  if (!found_cut) {
    cut = stats.bytes_consumed;
    base_lsn = stats.last_lsn;
  }

  // Archive the retired prefix before anything is dropped: the sink
  // must have it durable before the truncated log below is published,
  // so a crash anywhere in between loses nothing (the prefix exists in
  // the archive, the live log, or both).
  if (seal != nullptr && cut > 0 && prefix_first_lsn != 0 &&
      prefix_first_lsn <= base_lsn) {
    std::string sealed = TruncationPointFrame(prefix_first_lsn - 1);
    sealed.append(data.data(), cut);
    LSTORE_RETURN_IF_ERROR(seal(prefix_first_lsn, base_lsn, sealed));
  }

  // Publish head + retained bytes + live suffix as the new log. The
  // fill writes head and retained bytes without the mutex (appends
  // proceed), then takes it for good: phase 3 (O(appends since phase
  // 1)) drains the buffer and copies the live suffix [snap_size, EOF),
  // and the mutex stays held through the publish and the handle swap.
  // Phase 3 takes the sync token first: no data sync may run on the
  // handle it swaps.
  std::string head = TruncationPointFrame(base_lsn);
  std::unique_lock<SyncToken> token(token_, std::defer_lock);
  std::unique_lock<std::mutex> lk(mu_, std::defer_lock);
  File next;
  Status s = WriteFileAtomic(
      path_,
      [&](File& out) {
        std::string_view kept = std::string_view(data).substr(cut);
        LSTORE_RETURN_IF_ERROR(out.WriteAt(0, head));
        LSTORE_RETURN_IF_ERROR(out.WriteAt(head.size(), kept));
        token.lock();
        lk.lock();
        LSTORE_RETURN_IF_ERROR(FlushBufferLocked());
        std::string suffix;
        LSTORE_RETURN_IF_ERROR(
            file_.ReadAt(snap_size, size_ - snap_size, &suffix));
        if (metrics_.truncate_read_bytes != nullptr) {
          metrics_.truncate_read_bytes->Add(suffix.size());
        }
        return out.WriteAt(head.size() + kept.size(), suffix);
      },
      &next);
  // Not published: the old log stands. Published: the path names the
  // new file even if the directory fsync failed, so the handle moves
  // to it either way and that failure surfaces as the result.
  if (!next.is_open()) return s;
  // Rebase the marks: old offset `drop` is new offset head.size().
  uint64_t drop = from.offset + cut;
  marks_.erase(marks_.begin(),
               std::find_if(marks_.begin(), marks_.end(),
                            [drop](const Mark& m) { return m.offset > drop; }));
  for (Mark& m : marks_) m.offset = m.offset - drop + head.size();
  size_ = size_ - drop + head.size();
  allocated_ = size_;  // the new file has no zero tail
  bytes_.store(size_, std::memory_order_release);
  file_ = std::move(next);
  return s;
}

}  // namespace lstore
