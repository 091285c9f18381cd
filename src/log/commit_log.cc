#include "log/commit_log.h"

#include "common/file.h"
#include "storage/compression/varint.h"

namespace lstore {

namespace {

/// Payload type bytes (first byte of every payload). The truncation
/// point (tag 5) is owned by the framed core.
constexpr char kCommitRecord = 1;
constexpr char kAbortMarker = 2;  ///< authoritative cross-table abort

}  // namespace

void CommitLog::EncodePayload(const CommitLogRecord& rec, std::string* out) {
  if (rec.aborted) {
    out->push_back(kAbortMarker);
    PutVarint64(out, rec.txn_id);
    return;
  }
  out->push_back(kCommitRecord);
  PutVarint64(out, rec.txn_id);
  PutVarint64(out, rec.commit_time);
  PutVarint64(out, rec.participants.size());
  for (const CommitLogRecord::Participant& p : rec.participants) {
    PutVarint64(out, p.table.size());
    out->append(p.table);
    PutVarint64(out, p.last_lsn);
  }
}

bool CommitLog::DecodePayload(const char* data, size_t size,
                              CommitLogRecord* rec) {
  if (size == 0) return false;
  size_t pos = 1;
  uint64_t v;
  if (data[0] == kAbortMarker) {
    if (!GetVarint64(data, size, &pos, &v)) return false;
    rec->txn_id = v;
    rec->aborted = true;
    rec->commit_time = 0;
    rec->participants.clear();
    return pos == size;
  }
  if (data[0] != kCommitRecord) return false;
  rec->aborted = false;
  if (!GetVarint64(data, size, &pos, &v)) return false;
  rec->txn_id = v;
  if (!GetVarint64(data, size, &pos, &v)) return false;
  rec->commit_time = v;
  uint64_t nparts;
  if (!GetVarint64(data, size, &pos, &nparts)) return false;
  rec->participants.clear();
  for (uint64_t i = 0; i < nparts; ++i) {
    uint64_t len;
    if (!GetVarint64(data, size, &pos, &len) || len > size - pos) {
      return false;
    }
    CommitLogRecord::Participant p;
    p.table.assign(data + pos, len);
    pos += len;
    if (!GetVarint64(data, size, &pos, &v)) return false;
    p.last_lsn = v;
    rec->participants.push_back(std::move(p));
  }
  return pos == size;
}

bool CommitLog::ValidatePayload(const char* payload, size_t len,
                                uint64_t* lsn_count) {
  CommitLogRecord rec;
  if (!DecodePayload(payload, len, &rec)) return false;
  *lsn_count = 1;
  return true;
}

Status CommitLog::Open(
    const std::string& path, bool truncate,
    const std::function<void(const CommitLogRecord&, uint64_t lsn)>&
        replay_fn) {
  // The replay rides the open-time scan (one file read). A torn final
  // record is repaired by the scan and never delivered — it never
  // committed, on any participant.
  if (replay_fn == nullptr) return framed_.Open(path, truncate);
  return framed_.Open(
      path, truncate,
      [&replay_fn](std::string_view payload, uint64_t first_lsn, uint64_t,
                   size_t, size_t) {
        CommitLogRecord rec;
        DecodePayload(payload.data(), payload.size(), &rec);
        replay_fn(rec, first_lsn);
      });
}

uint64_t CommitLog::Append(const CommitLogRecord& rec) {
  std::string payload;
  EncodePayload(rec, &payload);
  return framed_.Append(payload, 1);
}

Status CommitLog::Scan(
    const std::function<void(const CommitLogRecord&, uint64_t lsn)>& fn) {
  LSTORE_RETURN_IF_ERROR(Flush(false));
  // Concurrent appends land beyond the flushed prefix; the scan stops
  // cleanly at whatever boundary it finds.
  Status s = Replay(framed_.path(), fn);
  if (!s.ok()) {
    return Status::IOError("cannot read commit log: " + framed_.path());
  }
  return s;
}

Status CommitLog::Replay(
    const std::string& path,
    const std::function<void(const CommitLogRecord&, uint64_t lsn)>& fn,
    ReplayStats* stats) {
  if (!FileExists(path)) return Status::OK();  // no log yet
  Status s = FramedLog::ScanFile(
      path, &CommitLog::ValidatePayload,
      [&fn](std::string_view payload, uint64_t first_lsn, uint64_t, size_t,
            size_t) {
        if (!fn) return;
        CommitLogRecord rec;
        DecodePayload(payload.data(), payload.size(), &rec);
        fn(rec, first_lsn);
      },
      stats);
  if (!s.ok()) return Status::IOError("cannot open commit log for replay");
  return Status::OK();
}

}  // namespace lstore
