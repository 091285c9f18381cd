#include "log/redo_log.h"

#include <cstdint>
#include <cstring>

#include "common/bitutil.h"
#include "storage/compression/varint.h"

namespace lstore {

void RedoLog::EncodePayload(const LogRecord& rec, std::string* out) {
  if (rec.type == LogRecordType::kTailAppend ||
      rec.type == LogRecordType::kInsertAppend) {
    AppendWriter w(rec.type, rec.txn_id, rec.range_id, rec.seq,
                   rec.base_slot, rec.backptr, rec.schema_encoding,
                   rec.start_raw, rec.mask);
    for (Value v : rec.values) w.AddValue(v);
    out->append(w.payload());
    return;
  }
  out->push_back(static_cast<char>(rec.type));
  if (rec.type == LogRecordType::kTruncationPoint) {
    PutVarint64(out, rec.base_lsn);
    return;
  }
  PutVarint64(out, rec.txn_id);
  // kAbort carries nothing more; batches are framed by AppendBatch.
  if (rec.type == LogRecordType::kCommit) PutVarint64(out, rec.commit_time);
}

bool RedoLog::DecodePayload(const char* data, size_t size, LogRecord* rec) {
  if (size == 0) return false;
  size_t pos = 0;
  rec->type = static_cast<LogRecordType>(data[pos++]);
  uint64_t v;
  if (rec->type == LogRecordType::kTruncationPoint) {
    if (!GetVarint64(data, size, &pos, &v)) return false;
    rec->base_lsn = v;
    return pos == size;
  }
  if (!GetVarint64(data, size, &pos, &v)) return false;
  rec->txn_id = v;
  switch (rec->type) {
    case LogRecordType::kCommit:
      if (!GetVarint64(data, size, &pos, &v)) return false;
      rec->commit_time = v;
      return pos == size;
    case LogRecordType::kAbort:
      return pos == size;
    case LogRecordType::kTailAppend:
    case LogRecordType::kInsertAppend: {
      if (!GetVarint64(data, size, &pos, &v)) return false;
      rec->range_id = v;
      if (!GetVarint64(data, size, &pos, &v)) return false;
      rec->seq = static_cast<uint32_t>(v);
      if (!GetVarint64(data, size, &pos, &v)) return false;
      rec->base_slot = static_cast<uint32_t>(v);
      if (!GetVarint64(data, size, &pos, &v)) return false;
      rec->backptr = static_cast<uint32_t>(v);
      if (!GetVarint64(data, size, &pos, &v)) return false;
      rec->schema_encoding = v;
      if (!GetVarint64(data, size, &pos, &v)) return false;
      rec->start_raw = v;
      if (!GetVarint64(data, size, &pos, &v)) return false;
      rec->mask = v;
      int n = PopCount(rec->mask);
      rec->values.clear();
      for (int i = 0; i < n; ++i) {
        if (!GetVarint64(data, size, &pos, &v)) return false;
        rec->values.push_back(v);
      }
      return pos == size;
    }
    default:
      return false;
  }
}

bool RedoLog::ValidatePayload(const char* payload, size_t len,
                              uint64_t* lsn_count) {
  if (len == 0) return false;
  if (static_cast<LogRecordType>(payload[0]) == LogRecordType::kBatch) {
    // One frame, N records: every sub-payload must decode, or the
    // whole frame is malformed (treated as a torn tail by the scan).
    size_t pos = 1;
    uint64_t count = 0;
    if (!GetVarint64(payload, len, &pos, &count)) return false;
    LogRecord rec;
    for (uint64_t i = 0; i < count; ++i) {
      uint64_t sub_len = 0;
      if (!GetVarint64(payload, len, &pos, &sub_len) || sub_len > len - pos) {
        return false;
      }
      if (!DecodePayload(payload + pos, sub_len, &rec) ||
          rec.type == LogRecordType::kTruncationPoint ||
          rec.type == LogRecordType::kBatch) {
        return false;
      }
      pos += sub_len;
    }
    if (pos != len) return false;
    *lsn_count = count;
    return true;
  }
  LogRecord rec;
  if (!DecodePayload(payload, len, &rec)) return false;
  *lsn_count = 1;
  return true;
}

uint64_t RedoLog::Append(const LogRecord& rec) {
  std::string payload;
  EncodePayload(rec, &payload);
  return framed_.Append(payload, 1);
}

void RedoLog::Batch::AddPayload(std::string_view payload) {
  PutVarint64(&body_, payload.size());
  body_.append(payload);
  ++count_;
}

uint64_t RedoLog::AppendBatch(Batch& batch) {
  if (batch.count_ == 0) return 0;
  std::string header;
  header.push_back(static_cast<char>(LogRecordType::kBatch));
  PutVarint64(&header, batch.count_);
  size_t start = Batch::kHeadroom - header.size();
  batch.body_.replace(start, header.size(), header);
  return framed_.Append(
      std::string_view(batch.body_).substr(start), batch.count_);
}

uint64_t RedoLog::AppendBatch(const std::vector<LogRecord>& recs) {
  Batch batch;
  std::string payload;
  for (const LogRecord& rec : recs) {
    payload.clear();
    EncodePayload(rec, &payload);
    batch.AddPayload(payload);
  }
  return AppendBatch(batch);
}

Status RedoLog::Replay(
    const std::string& path,
    const std::function<void(const LogRecord&, uint64_t lsn)>& fn,
    ReplayStats* stats) {
  Status s = FramedLog::ScanFile(
      path, &RedoLog::ValidatePayload,
      [&fn](std::string_view payload, uint64_t first_lsn, uint64_t, size_t,
            size_t) {
        if (!fn) return;
        const char* data = payload.data();
        size_t len = payload.size();
        if (static_cast<LogRecordType>(data[0]) == LogRecordType::kBatch) {
          // Already validated by the codec; deliver each sub-record
          // with its own LSN.
          size_t pos = 1;
          uint64_t count = 0;
          GetVarint64(data, len, &pos, &count);
          LogRecord rec;
          for (uint64_t i = 0; i < count; ++i) {
            uint64_t sub_len = 0;
            GetVarint64(data, len, &pos, &sub_len);
            DecodePayload(data + pos, sub_len, &rec);
            pos += sub_len;
            fn(rec, first_lsn + i);
          }
          return;
        }
        LogRecord rec;
        DecodePayload(data, len, &rec);
        fn(rec, first_lsn);
      },
      stats);
  if (!s.ok()) return Status::IOError("cannot open log for replay");
  return Status::OK();
}

Status RedoLog::Replay(const std::string& path,
                       const std::function<void(const LogRecord&)>& fn) {
  return Replay(
      path, [&fn](const LogRecord& rec, uint64_t) { fn(rec); }, nullptr);
}

}  // namespace lstore
