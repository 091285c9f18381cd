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
  switch (rec->type) {
    case LogRecordType::kCommit:
      rec->txn_id = v;
      if (!GetVarint64(data, size, pos, &v)) return false;
      rec->commit_time = v;
      return true;
    case LogRecordType::kAbort:
      rec->txn_id = v;
      return true;
    case LogRecordType::kTailAppend:
    case LogRecordType::kInsertAppend: {
      rec->table_id = v;
      // txn, range, seq, base slot, backptr, encoding, start, mask
      uint64_t f[8];
      for (uint64_t& field : f) {
        if (!GetVarint64(data, size, pos, &field)) return false;
      }
      rec->txn_id = f[0];
      rec->range_id = f[1];
      rec->seq = static_cast<uint32_t>(f[2]);
      rec->base_slot = static_cast<uint32_t>(f[3]);
      rec->backptr = static_cast<uint32_t>(f[4]);
      rec->schema_encoding = f[5];
      rec->start_raw = f[6];
      rec->mask = f[7];
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
  uint64_t table, txn, range, first, count, mask;
  for (uint64_t* field : {&table, &txn, &range, &first, &count, &mask}) {
    if (!GetVarint64(data, size, pos, field)) return false;
  }
  // Every row's slot and seq (slot + 1) must fit the 32-bit fields.
  if (count == 0 || count > UINT32_MAX || first > UINT32_MAX - count) {
    return false;
  }
  const int width = PopCount(mask);
  if constexpr (kDeliver) {
    rec->type = LogRecordType::kInsertAppend;
    rec->table_id = table;
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
    AppendWriter w(rec.type, rec.table_id, rec.txn_id, rec.range_id, rec.seq,
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

void RedoLog::Batch::AddInsertRun(uint64_t table_id, TxnId txn,
                                  uint64_t range_id, uint32_t first_slot,
                                  const std::vector<Value>* rows,
                                  size_t count, ColumnMask mask) {
  // The mask's columns, listed once for every row.
  uint32_t cols[64];
  size_t ncols = 0;
  for (BitIter it(mask); it; ++it) cols[ncols++] = static_cast<uint32_t>(*it);
  // Encode straight into the body, grown once by the run's bound and
  // cut back to the bytes written.
  const size_t head = body_.size();
  body_.resize(head + 1 + (6 + count * ncols) * kMaxVarintBytes);
  char* out = body_.data() + head;
  size_t len = 0;
  out[len++] = static_cast<char>(LogRecordType::kInsertRun);
  for (uint64_t field : {table_id, txn, range_id, uint64_t{first_slot},
                         uint64_t{count}, mask}) {
    len = PutVarint(out, len, field);
  }
  for (size_t i = 0; i < count; ++i) {
    const Value* row = rows[i].data();
    for (size_t c = 0; c < ncols; ++c) len = PutVarint(out, len, row[cols[c]]);
  }
  body_.resize(head + len);
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
