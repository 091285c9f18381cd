#include "log/framed_log.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <iterator>

#include "obs/span.h"
#include "obs/trace.h"
#include "storage/compression/varint.h"

namespace lstore {

namespace {

/// Read a whole file into `out`; false if it cannot be opened.
bool SlurpFile(const std::string& path, std::string* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  char chunk[1 << 16];
  size_t n;
  while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    out->append(chunk, n);
  }
  std::fclose(f);
  return true;
}

/// Read the `len` bytes at `offset` of `path` into `out`; false if the
/// file cannot be opened or holds fewer bytes.
bool ReadFileRange(const std::string& path, uint64_t offset, size_t len,
                   std::string* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  out->resize(len);
  bool ok = std::fseek(f, static_cast<long>(offset), SEEK_SET) == 0 &&
            std::fread(out->data(), 1, len, f) == len;
  std::fclose(f);
  return ok;
}

/// fsync the directory containing `path` so a rename inside it
/// survives power loss (file data alone is not enough).
Status SyncDirOf(const std::string& path) {
  size_t sep = path.find_last_of('/');
  std::string dir = sep == std::string::npos ? "." : path.substr(0, sep);
  int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd < 0) return Status::IOError("cannot open dir for fsync: " + dir);
  int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return Status::IOError("dir fsync failed: " + dir);
  return Status::OK();
}

}  // namespace

uint32_t Fnv1a32(const char* data, size_t n) {
  uint32_t h = 2166136261u;
  for (size_t i = 0; i < n; ++i) {
    h ^= static_cast<uint8_t>(data[i]);
    h *= 16777619u;
  }
  return h;
}

// ---------------------------------------------------------------------------
// Static framing helpers
// ---------------------------------------------------------------------------

void FramedLog::AppendFrame(std::string* out, std::string_view payload) {
  PutVarint64(out, payload.size());
  out->append(payload);
  uint32_t crc = Fnv1a32(payload.data(), payload.size());
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
    if (Fnv1a32(payload, len) != stored) {  // corrupt frame
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
  if (!SlurpFile(path, &data)) {
    return Status::IOError("cannot open log for scan: " + path);
  }
  ScanStats local;
  ScanFrames(data, codec, fn, stats != nullptr ? stats : &local);
  return Status::OK();
}

uint64_t FramedLog::ReadBaseLsn(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return 0;
  char head[32];
  size_t n = std::fread(head, 1, sizeof(head), f);
  std::fclose(f);
  size_t pos = 0;
  uint64_t len;
  if (!GetVarint64(head, n, &pos, &len) || len == 0 || len > n - pos) return 0;
  if (static_cast<uint8_t>(head[pos]) != kTruncationPointTag) return 0;
  size_t sub = pos + 1;
  uint64_t base = 0;
  if (!GetVarint64(head, pos + len, &sub, &base)) return 0;
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
    // would hide the new records from every future replay.
    std::string data;
    if (SlurpFile(path, &data) && !data.empty()) {
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
      if (!stats.clean_end) {
        if (::truncate(path.c_str(),
                       static_cast<off_t>(stats.bytes_consumed)) != 0) {
          return Status::IOError("cannot repair torn log tail: " + path);
        }
      }
    }
  }
  file_ = std::fopen(path.c_str(), truncate ? "wb" : "ab");
  if (file_ == nullptr) {
    return Status::IOError("cannot open log file: " + path);
  }
  return Status::OK();
}

void FramedLog::Close() {
  if (file_ != nullptr) {
    Flush(false);
    std::fclose(file_);
    file_ = nullptr;
  }
}

uint64_t FramedLog::Append(std::string_view payload, uint64_t lsn_count) {
  if (lsn_count == 0) return 0;
  // Time 1 in 64 appends: a clock read costs as much as the append
  // itself, and the latency histogram only needs a sample of the
  // distribution, not every point.
  uint64_t t0 = 0;
  if (kTraceEnabled && metrics_.append_ns != nullptr) {
    thread_local uint64_t sample_tick = 0;
    if ((sample_tick++ & 63) == 0) t0 = NowNanos();
  }
  // A traced request times every one of its appends (its timeline has
  // to be complete), independent of the 1-in-64 histogram sampling.
  uint64_t span_trace = kTraceEnabled ? TraceContext::Current() : 0;
  uint64_t span_t0 = span_trace != 0 ? NowNanos() : 0;
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
  if (t0 != 0) metrics_.append_ns->Record(NowNanos() - t0);
  if (span_trace != 0) {
    RecordSpan(span_trace, "log_append", span_t0, NowNanos() - span_t0);
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
  if (file_ == nullptr) return Status::IOError("log not open");
  if (!buffer_.empty()) {
    size_t n = std::fwrite(buffer_.data(), 1, buffer_.size(), file_);
    if (n != buffer_.size()) {
      // Drop exactly the consumed prefix on a short write (ENOSPC):
      // the file holds a partial frame, and a later retry must
      // continue at the same byte — re-writing the whole buffer after
      // the partial prefix would corrupt the log mid-file and take
      // every LATER (acknowledged) record down with it at the next
      // open's tail scan.
      std::string rest(buffer_, n);
      buffer_ = std::move(rest);
      return Status::IOError("short log write");
    }
    buffer_.clear();
  }
  if (std::fflush(file_) != 0) return Status::IOError("fflush failed");
  return Status::OK();
}

Status FramedLog::Flush(bool sync) {
  uint64_t t0 =
      (kTraceEnabled && metrics_.flush_ns != nullptr) ? NowNanos() : 0;
  std::lock_guard<std::mutex> g(mu_);
  PublishPendingLocked();  // flush = a snapshot-visible point
  LSTORE_RETURN_IF_ERROR(FlushBufferLocked());
  if (sync) {
    if (sync_counter_ != nullptr) {
      sync_counter_->fetch_add(1, std::memory_order_relaxed);
    }
    if (metrics_.fsyncs != nullptr) metrics_.fsyncs->Add(1);
    if (::fsync(::fileno(file_)) != 0) {
      return Status::IOError("fsync failed");
    }
  }
  if (t0 != 0) metrics_.flush_ns->Record(NowNanos() - t0);
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
  if (!ReadFileRange(path_, from.offset, snap_size - from.offset, &data)) {
    return Status::IOError("cannot read log for truncation: " + path_);
  }
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

  std::string head = TruncationPointFrame(base_lsn);
  std::string tmp = path_ + ".tmp";
  std::FILE* out = std::fopen(tmp.c_str(), "wb");
  if (out == nullptr) return Status::IOError("cannot open temp log: " + tmp);
  bool write_ok =
      std::fwrite(head.data(), 1, head.size(), out) == head.size() &&
      (data.size() == cut ||
       std::fwrite(data.data() + cut, 1, data.size() - cut, out) ==
           data.size() - cut);
  if (!write_ok) {
    std::fclose(out);
    std::remove(tmp.c_str());
    return Status::IOError("short write during log truncation");
  }

  // Phase 3 (mutex, O(appends since phase 1)): drain the buffer, copy
  // the live suffix [snap_size, EOF) byte-for-byte, and swap handles.
  std::lock_guard<std::mutex> g(mu_);
  Status flush = FlushBufferLocked();
  if (!flush.ok()) {
    std::fclose(out);
    std::remove(tmp.c_str());
    return flush;
  }
  {
    std::FILE* in = std::fopen(path_.c_str(), "rb");
    if (in == nullptr ||
        std::fseek(in, static_cast<long>(snap_size), SEEK_SET) != 0) {
      if (in != nullptr) std::fclose(in);
      std::fclose(out);
      std::remove(tmp.c_str());
      return Status::IOError("cannot read log suffix for truncation");
    }
    char chunk[1 << 16];
    size_t n;
    while ((n = std::fread(chunk, 1, sizeof(chunk), in)) > 0) {
      if (metrics_.truncate_read_bytes != nullptr) {
        metrics_.truncate_read_bytes->Add(n);
      }
      if (std::fwrite(chunk, 1, n, out) != n) {
        std::fclose(in);
        std::fclose(out);
        std::remove(tmp.c_str());
        return Status::IOError("short write during log truncation");
      }
    }
    std::fclose(in);
  }
  write_ok = std::fflush(out) == 0 && ::fsync(::fileno(out)) == 0;
  std::fclose(out);
  if (!write_ok) {
    std::remove(tmp.c_str());
    return Status::IOError("cannot sync truncated log");
  }
  if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IOError("cannot publish truncated log");
  }
  // Make the rename itself durable before dropping the old handle. The
  // path names the new file either way, so a failed directory fsync
  // still re-points the handle below, then surfaces as the result.
  Status dir_sync = SyncDirOf(path_);
  // Re-point the handle at the new file (the old inode is unlinked)
  // and rebase the marks: old offset `drop` is new offset head.size().
  uint64_t drop = from.offset + cut;
  marks_.erase(marks_.begin(),
               std::find_if(marks_.begin(), marks_.end(),
                            [drop](const Mark& m) { return m.offset > drop; }));
  for (Mark& m : marks_) m.offset = m.offset - drop + head.size();
  size_ = size_ - drop + head.size();
  std::fclose(file_);
  file_ = std::fopen(path_.c_str(), "ab");
  if (file_ == nullptr) {
    return Status::IOError("cannot reopen truncated log: " + path_);
  }
  return dir_sync;
}

}  // namespace lstore
