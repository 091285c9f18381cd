#include "log/framed_log.h"

#include <algorithm>
#include <cstring>
#include <iterator>

#include "common/checksum.h"
#include "obs/span.h"
#include "storage/compression/varint.h"

namespace lstore {

// ---------------------------------------------------------------------------
// Static framing helpers
// ---------------------------------------------------------------------------

void FramedLog::AppendFrame(std::string* out, std::string_view payload) {
  PutVarint64(out, payload.size());
  out->append(payload);
  uint32_t crc = Crc32c(payload.data(), payload.size());
  out->append(reinterpret_cast<const char*>(&crc), sizeof(crc));
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
    size_t frame_start = pos;
    uint64_t len;
    if (!GetVarint64(data.data(), data.size(), &pos, &len)) {
      stats->clean_end = false;  // torn length varint
      pos = frame_start;
      break;
    }
    size_t remain = data.size() - pos;
    // Overflow-safe: a torn tail can present an absurd length whose
    // naive `pos + len` bound check would wrap around.
    if (remain < sizeof(uint32_t) || len > remain - sizeof(uint32_t)) {
      stats->clean_end = false;
      pos = frame_start;
      break;
    }
    const char* payload = data.data() + pos;
    uint32_t stored;
    std::memcpy(&stored, data.data() + pos + len, sizeof(stored));
    if (Crc32c(payload, len) != stored) {  // corrupt frame
      stats->clean_end = false;
      pos = frame_start;
      break;
    }
    if (len > 0 &&
        static_cast<uint8_t>(payload[0]) == kTruncationPointTag) {
      size_t sub = 1;
      uint64_t base = 0;
      if (!GetVarint64(payload, len, &sub, &base) || sub != len) {
        stats->clean_end = false;
        pos = frame_start;
        break;
      }
      pos += len + sizeof(uint32_t);
      lsn = base;
      stats->base_lsn = base;
      stats->last_lsn = lsn;
      continue;
    }
    uint64_t count = 0;
    if (!codec(payload, len, &count)) {  // malformed payload
      stats->clean_end = false;
      pos = frame_start;
      break;
    }
    pos += len + sizeof(uint32_t);
    if (fn) {
      fn(std::string_view(payload, len), lsn + 1, count, frame_start, pos);
    }
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
  LSTORE_RETURN_IF_ERROR(file_.Open(
      path, truncate ? File::Mode::kCreateTruncate
                     : File::Mode::kReadWriteCreate));
  // Appends continue at size_: cut the torn tail beyond it, if any.
  Status s = file_.Truncate(size_);
  if (!s.ok()) file_.Close();
  return s;
}

void FramedLog::Close() {
  if (file_.is_open()) {
    Flush(false);
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

Status FramedLog::Flush(bool sync) {
  Stage stage(metrics_.flush_ns, nullptr);
  std::lock_guard<std::mutex> g(mu_);
  PublishPendingLocked();  // flush = a snapshot-visible point
  LSTORE_RETURN_IF_ERROR(FlushBufferLocked());
  if (sync) {
    if (metrics_.fsyncs != nullptr) metrics_.fsyncs->Add(1);
    LSTORE_RETURN_IF_ERROR(file_.Sync());
  }
  return Status::OK();
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
  std::string head = TruncationPointFrame(base_lsn);
  std::unique_lock<std::mutex> lk(mu_, std::defer_lock);
  File next;
  Status s = WriteFileAtomic(
      path_,
      [&](File& out) {
        std::string_view kept = std::string_view(data).substr(cut);
        LSTORE_RETURN_IF_ERROR(out.WriteAt(0, head));
        LSTORE_RETURN_IF_ERROR(out.WriteAt(head.size(), kept));
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
  file_ = std::move(next);
  return s;
}

}  // namespace lstore
