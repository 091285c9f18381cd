#include "log/redo_log.h"

#include <cstdint>
#include <cstring>

#include "common/bitutil.h"
#include "storage/compression/varint.h"

namespace lstore {

namespace {

/// Decode the single-row record at data[*pos] into `rec`, advancing
/// *pos past it; false for a kBatch or kInsertRun (or malformed) one.
bool DecodeRecord(const char* data, size_t size, size_t* pos,
                  LogRecord* rec) {
  if (*pos >= size) return false;
  rec->type = static_cast<LogRecordType>(data[(*pos)++]);
  uint64_t v;
  if (!GetVarint64(data, size, pos, &v)) return false;
  if (rec->type == LogRecordType::kTruncationPoint) {
    rec->base_lsn = v;
    return true;
  }
  rec->txn_id = v;
  switch (rec->type) {
    case LogRecordType::kCommit:
      if (!GetVarint64(data, size, pos, &v)) return false;
      rec->commit_time = v;
      return true;
    case LogRecordType::kAbort:
      return true;
    case LogRecordType::kTailAppend:
    case LogRecordType::kInsertAppend: {
      uint64_t f[7];  // range, seq, base slot, backptr, encoding, start, mask
      for (uint64_t& field : f) {
        if (!GetVarint64(data, size, pos, &field)) return false;
      }
      rec->range_id = f[0];
      rec->seq = static_cast<uint32_t>(f[1]);
      rec->base_slot = static_cast<uint32_t>(f[2]);
      rec->backptr = static_cast<uint32_t>(f[3]);
      rec->schema_encoding = f[4];
      rec->start_raw = f[5];
      rec->mask = f[6];
      int n = PopCount(rec->mask);
      rec->values.clear();
      for (int i = 0; i < n; ++i) {
        if (!GetVarint64(data, size, pos, &v)) return false;
        rec->values.push_back(v);
      }
      return true;
    }
    default:
      return false;
  }
}

/// Walk the kInsertRun record at data[*pos], advancing *pos past it and
/// setting *rows to its row count. With kDeliver, each row goes to `fn`
/// as a kInsertAppend record with its row index.
template <bool kDeliver, typename Fn>
bool WalkRun(const char* data, size_t size, size_t* pos, uint64_t* rows,
             LogRecord* rec, Fn& fn) {
  ++*pos;  // the type byte
  uint64_t txn, range, first, count, mask;
  for (uint64_t* field : {&txn, &range, &first, &count, &mask}) {
    if (!GetVarint64(data, size, pos, field)) return false;
  }
  // Every row's slot and seq (slot + 1) must fit the 32-bit fields.
  if (count == 0 || count > UINT32_MAX || first > UINT32_MAX - count) {
    return false;
  }
  const int width = PopCount(mask);
  if constexpr (kDeliver) {
    rec->type = LogRecordType::kInsertAppend;
    rec->txn_id = txn;
    rec->range_id = range;
    rec->backptr = 0;
    rec->schema_encoding = 0;
    rec->start_raw = txn;
    rec->mask = mask;
    rec->values.resize(width);
  }
  uint64_t v;
  for (uint64_t i = 0; i < count; ++i) {
    for (int c = 0; c < width; ++c) {
      if (!GetVarint64(data, size, pos, &v)) return false;
      if constexpr (kDeliver) rec->values[c] = v;
    }
    if constexpr (kDeliver) {
      rec->base_slot = static_cast<uint32_t>(first + i);
      rec->seq = rec->base_slot + 1;
      fn(*rec, i);
    }
  }
  *rows = count;
  return true;
}

/// Walk one payload — a single record, or a kBatch frame's records back
/// to back — checking every byte and counting its LSNs (one per record,
/// one per row of a run). With kDeliver, each record goes to `fn` with
/// its LSN offset within the payload, a run expanded row by row.
template <bool kDeliver, typename Fn>
bool WalkPayload(const char* data, size_t len, uint64_t* lsn_count, Fn fn) {
  if (len == 0) return false;
  const bool batch =
      static_cast<LogRecordType>(data[0]) == LogRecordType::kBatch;
  size_t pos = batch ? 1 : 0;
  uint64_t lsns = 0;
  LogRecord rec;
  do {
    if (pos >= len) return false;  // includes a batch with no records
    const auto type = static_cast<LogRecordType>(data[pos]);
    if (type == LogRecordType::kInsertRun) {
      uint64_t rows = 0;
      auto at = [&fn, lsns](const LogRecord& r, uint64_t i) {
        fn(r, lsns + i);
      };
      if (!WalkRun<kDeliver>(data, len, &pos, &rows, &rec, at)) return false;
      lsns += rows;
      continue;
    }
    if ((batch && type == LogRecordType::kTruncationPoint) ||
        !DecodeRecord(data, len, &pos, &rec)) {
      return false;
    }
    if constexpr (kDeliver) fn(rec, lsns);
    ++lsns;
  } while (batch && pos < len);
  if (pos != len) return false;
  *lsn_count = lsns;
  return true;
}

/// The frame callback delivering each record of a validated payload
/// (each row of a run) to `fn` with its own LSN; null without `fn`.
FramedLog::FrameFn Deliver(const RedoLog::RecordFn& fn) {
  if (!fn) return nullptr;
  return [&fn](std::string_view payload, uint64_t first_lsn, uint64_t,
               size_t, size_t) {
    uint64_t lsns = 0;
    WalkPayload<true>(payload.data(), payload.size(), &lsns,
                      [&fn, first_lsn](const LogRecord& rec, uint64_t i) {
                        fn(rec, first_lsn + i);
                      });
  };
}

}  // namespace

Status RedoLog::Open(const std::string& path, bool truncate,
                     const RecordFn& replay_fn) {
  return framed_.Open(path, truncate, Deliver(replay_fn));
}

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
  size_t pos = 0;
  return DecodeRecord(data, size, &pos, rec) && pos == size;
}

bool RedoLog::ValidatePayload(const char* payload, size_t len,
                              uint64_t* lsn_count) {
  return WalkPayload<false>(payload, len, lsn_count,
                            [](const LogRecord&, uint64_t) {});
}

uint64_t RedoLog::Append(const LogRecord& rec) {
  std::string payload;
  EncodePayload(rec, &payload);
  return framed_.Append(payload, 1);
}

void RedoLog::Batch::AddInsertRun(TxnId txn, uint64_t range_id,
                                  uint32_t first_slot,
                                  const std::vector<Value>* rows,
                                  size_t count, ColumnMask mask) {
  // Rows are encoded into a stack chunk that joins the body whenever
  // the next row might not fit: one append per ~4 KiB, none per value.
  char chunk[4096];
  size_t len = 0;
  chunk[len++] = static_cast<char>(LogRecordType::kInsertRun);
  for (uint64_t field :
       {txn, range_id, uint64_t{first_slot}, uint64_t{count}, mask}) {
    len = PutVarint(chunk, len, field);
  }
  const size_t row_max = PopCount(mask) * kMaxVarintBytes;
  for (size_t i = 0; i < count; ++i) {
    if (len + row_max > sizeof(chunk)) {
      body_.append(chunk, len);
      len = 0;
    }
    const std::vector<Value>& row = rows[i];
    for (BitIter it(mask); it; ++it) len = PutVarint(chunk, len, row[*it]);
  }
  body_.append(chunk, len);
  lsns_ += count;
}

uint64_t RedoLog::AppendBatch(const Batch& batch) {
  if (batch.empty()) return 0;
  return framed_.Append(batch.body_, batch.lsns_);
}

uint64_t RedoLog::AppendBatch(const std::vector<LogRecord>& recs) {
  Batch batch;
  for (const LogRecord& rec : recs) {
    EncodePayload(rec, &batch.body_);
    ++batch.lsns_;
  }
  return AppendBatch(batch);
}

Status RedoLog::Replay(const std::string& path, const RecordFn& fn,
                       ReplayStats* stats) {
  Status s = FramedLog::ScanFile(path, &RedoLog::ValidatePayload,
                                 Deliver(fn), stats);
  if (!s.ok()) return Status::IOError("cannot open log for replay");
  return Status::OK();
}

Status RedoLog::Replay(const std::string& path,
                       const std::function<void(const LogRecord&)>& fn) {
  return Replay(
      path, [&fn](const LogRecord& rec, uint64_t) { fn(rec); }, nullptr);
}

}  // namespace lstore
