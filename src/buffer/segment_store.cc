#include "buffer/segment_store.h"

#include <cstdlib>

namespace lstore {

SegmentStore::~SegmentStore() { Close(); }

Status SegmentStore::Open(const std::string& path, bool read_only) {
  Close();
  LSTORE_RETURN_IF_ERROR(file_.Open(
      path, read_only ? File::Mode::kRead : File::Mode::kReadWriteCreate));
  uint64_t size = 0;
  Status s = file_.Size(&size);
  if (!s.ok()) {
    file_.Close();
    return s;
  }
  durable_ = !read_only;
  end_.store(size, std::memory_order_release);
  return Status::OK();
}

Status SegmentStore::OpenTemp() {
  Close();
  const char* base = std::getenv("TMPDIR");
  return file_.OpenAnonymous(base != nullptr ? base : "/tmp");
}

void SegmentStore::Close() {
  file_.Close();
  durable_ = false;
  end_.store(0, std::memory_order_release);
}

Status SegmentStore::Append(std::string_view payload, uint64_t* offset) {
  if (!file_.is_open()) return Status::IOError("segment store not open");
  std::lock_guard<std::mutex> g(append_mu_);
  uint64_t off = end_.load(std::memory_order_relaxed);
  // Nothing references [off, ...) yet; the next append retries the
  // same offset, so a short write cannot corrupt recorded ranges.
  LSTORE_RETURN_IF_ERROR(file_.WriteAt(off, payload));
  // Publish the new end only after the bytes are fully written:
  // Contains() must never cover a half-written payload.
  end_.store(off + payload.size(), std::memory_order_release);
  if (offset != nullptr) *offset = off;
  return Status::OK();
}

Status SegmentStore::ReadAt(uint64_t offset, uint64_t length,
                            std::string* out) const {
  if (!file_.is_open()) return Status::IOError("segment store not open");
  if (!Contains(offset, length)) {
    return Status::Corruption("segment store read out of bounds");
  }
  return file_.ReadAt(offset, length, out);
}

bool SegmentStore::Contains(uint64_t offset, uint64_t length) const {
  uint64_t end = end_.load(std::memory_order_acquire);
  return offset <= end && length <= end - offset;
}

Status SegmentStore::Sync() {
  if (!file_.is_open()) return Status::IOError("segment store not open");
  return file_.Sync();
}

}  // namespace lstore
