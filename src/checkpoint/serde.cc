// Frame writer/reader and the table checkpoint capture/restore pass.

#include "checkpoint/serde.h"

#include <cstring>
#include <memory>

#include "common/bitutil.h"
#include "common/checksum.h"
#include "core/historic.h"
#include "core/table.h"
#include "storage/compressed_column.h"
#include "storage/compression/varint.h"

namespace lstore {

// ---------------------------------------------------------------------------
// FrameWriter
// ---------------------------------------------------------------------------

FrameWriter::FrameWriter(File* file, uint32_t magic)
    : file_(file) {
  std::string header;
  PutVarint64(&header, magic);
  PutVarint64(&header, kCheckpointFormatVersion);
  WriteFrame(FrameType::kFileHeader, header);  // batched: cannot fail
}

Status FrameWriter::WriteBatch() {
  LSTORE_RETURN_IF_ERROR(file_->WriteAt(offset_, batch_));
  offset_ += batch_.size();
  batch_.clear();
  return Status::OK();
}

Status FrameWriter::WriteFrame(FrameType type, const std::string& payload) {
  const size_t body = payload.size() + 1;
  const size_t frame = VarintLength(body) + body + sizeof(uint32_t);
  if (!batch_.empty() && batch_.size() + frame > kWriteBatch) {
    LSTORE_RETURN_IF_ERROR(WriteBatch());
  }
  const size_t start = batch_.size();
  PutVarint64(&batch_, body);
  batch_.push_back(static_cast<char>(type));
  batch_.append(payload);
  uint32_t crc = Crc32c(batch_.data() + batch_.size() - body, body);
  batch_.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  checksum_ = Crc32c(batch_.data() + start, frame, checksum_);
  return batch_.size() >= kWriteBatch ? WriteBatch() : Status::OK();
}

Status FrameWriter::Finish() {
  return batch_.empty() ? Status::OK() : WriteBatch();
}

// ---------------------------------------------------------------------------
// FrameReader
// ---------------------------------------------------------------------------

Status FrameReader::Open(const std::string& path, uint32_t expected_magic) {
  Status read = ReadFile(path, &data_);
  if (read.IsNotFound()) return Status::IOError("cannot open file: " + path);
  LSTORE_RETURN_IF_ERROR(read);
  checksum_ = Crc32c(data_.data(), data_.size());

  FrameType type;
  std::string_view payload;
  if (!Next(&type, &payload) || type != FrameType::kFileHeader) {
    return Status::Corruption("missing file header: " + path);
  }
  size_t pos = 0;
  uint64_t magic = 0, version = 0;
  if (!GetU64(payload, &pos, &magic) || !GetU64(payload, &pos, &version) ||
      magic != expected_magic) {
    return Status::Corruption("bad magic: " + path);
  }
  // Each version changes how some frame is laid out (version 2 stores
  // base segments in their compressed form), so only the current one
  // reads back correctly.
  if (version != kCheckpointFormatVersion) {
    return Status::Corruption("unsupported format version: " + path);
  }
  return Status::OK();
}

bool FrameReader::Next(FrameType* type, std::string_view* payload) {
  if (!status_.ok() || pos_ >= data_.size()) return false;
  size_t pos = pos_;
  uint64_t len;
  if (!GetVarint64(data_.data(), data_.size(), &pos, &len) || len == 0) {
    status_ = Status::Corruption("torn checkpoint frame");
    return false;
  }
  size_t remain = data_.size() - pos;
  if (remain < sizeof(uint32_t) || len > remain - sizeof(uint32_t)) {
    status_ = Status::Corruption("torn checkpoint frame");
    return false;
  }
  const char* frame = data_.data() + pos;
  uint32_t stored;
  std::memcpy(&stored, data_.data() + pos + len, sizeof(stored));
  if (Crc32c(frame, len) != stored) {
    status_ = Status::Corruption("checkpoint frame checksum mismatch");
    return false;
  }
  *type = static_cast<FrameType>(frame[0]);
  *payload = std::string_view(frame + 1, len - 1);
  pos_ = pos + len + sizeof(uint32_t);
  return true;
}

// ---------------------------------------------------------------------------
// Payload primitives
// ---------------------------------------------------------------------------

void PutString(std::string* out, std::string_view s) {
  PutVarint64(out, s.size());
  out->append(s);
}

bool GetString(std::string_view in, size_t* pos, std::string* s) {
  uint64_t len;
  if (!GetVarint64(in.data(), in.size(), pos, &len)) return false;
  if (len > in.size() - *pos) return false;  // overflow-safe bound
  s->assign(in.data() + *pos, len);
  *pos += len;
  return true;
}

bool GetU64(std::string_view in, size_t* pos, uint64_t* v) {
  return GetVarint64(in.data(), in.size(), pos, v);
}

// ---------------------------------------------------------------------------
// CheckpointIO — capture
// ---------------------------------------------------------------------------

namespace {

/// Resolve the raw Start Time of one tail record for the snapshot,
/// stamping a decided writer's outcome into the slot as readers do.
/// Returns a commit time, the aborted stamp, a still-active txn id
/// (a later commit/abort record necessarily has an LSN beyond the log
/// watermark and resolves it during replay), or kNull for a record the
/// writer has not published yet. kNull is safe to omit: writers
/// publish the Start Time BEFORE appending to the redo log, so an
/// unpublished record's log append (if it ever happens) necessarily
/// has an LSN beyond the watermark taken before this capture, and the
/// retained log tail replays it.
Value ResolveStartForCapture(TransactionManager* tm,
                             std::atomic<Value>* sref) {
  Value raw = sref->load(std::memory_order_acquire);
  // A pre-committing writer's commit record may already precede the
  // watermark; wait out the validation window instead of guessing.
  while (tm->Resolve(sref, &raw).outcome == Outcome::kPreCommit) {
    tm->AwaitOutcome(raw);
  }
  return raw;
}

}  // namespace

Status CheckpointIO::WriteTable(Table& t, const std::string& path,
                                uint64_t* file_checksum) {
  File file;
  LSTORE_RETURN_IF_ERROR(file.Open(path, File::Mode::kCreateTruncate));
  FrameWriter w(&file, kCheckpointMagic);

  // Keep retired segments and tail pages alive for the whole capture.
  EpochGuard guard(t.epochs_);
  const uint32_t ncols = t.schema_.num_columns();
  const uint32_t nphys = ncols + kBaseMetaColumns;
  // Read once: restore refuses a range id past the header's count.
  const uint64_t nranges = t.num_ranges();

  {
    std::string p;
    PutString(&p, t.name_);
    PutVarint64(&p, ncols);
    for (ColumnId c = 0; c < ncols; ++c) PutString(&p, t.schema_.name(c));
    PutVarint64(&p, t.config_.range_size);
    PutVarint64(&p, t.next_row_.load(std::memory_order_acquire));
    PutVarint64(&p, nranges);
    LSTORE_RETURN_IF_ERROR(w.WriteFrame(FrameType::kTableHeader, p));
  }

  uint64_t ranges_written = 0;
  for (uint64_t id = 0; id < nranges; ++id) {
    Table::Range* r = t.GetRange(id);
    if (r == nullptr) continue;
    // Stable merge lineage: base segments, TPS, the based prefix and
    // the historic boundary only move under this latch (merge,
    // insert-merge, and historic compression all take it).
    SpinGuard g(r->merge_latch);
    const uint32_t occupied = r->occupied.load(std::memory_order_acquire);
    const uint32_t based = r->based.load(std::memory_order_acquire);
    const uint32_t tps = r->merged_tps.load(std::memory_order_acquire);
    const uint32_t boundary =
        r->historic_boundary.load(std::memory_order_acquire);
    const uint32_t last = r->updates.LastSeq();

    {
      std::string p;
      PutVarint64(&p, id);
      PutVarint64(&p, occupied);
      PutVarint64(&p, based);
      PutVarint64(&p, tps);
      PutVarint64(&p, boundary);
      PutVarint64(&p, last);
      LSTORE_RETURN_IF_ERROR(w.WriteFrame(FrameType::kRangeState, p));
    }

    // Consolidated base segments (read-optimized columns + lineage).
    // A segment already written through to the table's durable store
    // is checkpointed by reference — no payload I/O, and a cold
    // (evicted) segment is never faulted in just to checkpoint it.
    // SyncSegmentStore() runs before the manifest is published, so
    // every referenced byte range is durable first. Any other segment
    // is copied inline in its serialized compressed form.
    for (uint32_t pc = 0; pc < nphys; ++pc) {
      BaseSegment* seg = r->base[pc].load(std::memory_order_acquire);
      if (seg == nullptr) continue;
      const SegmentPage* page = seg->page.get();
      std::string p;
      PutVarint64(&p, id);
      PutVarint64(&p, pc);
      PutVarint64(&p, seg->tps);
      PutVarint64(&p, seg->num_slots);
      if (page != nullptr && page->evictable() && page->store()->durable()) {
        PutVarint64(&p, page->swap_offset());
        PutVarint64(&p, page->swap_length());
        PutVarint64(&p, page->swap_checksum());
        CompressedColumn::PutHeader(&p, page->layout());
        LSTORE_RETURN_IF_ERROR(w.WriteFrame(FrameType::kBaseSegmentRef, p));
        continue;
      }
      seg->Pin()->AppendTo(&p);
      LSTORE_RETURN_IF_ERROR(w.WriteFrame(FrameType::kBaseSegment, p));
    }

    // Update-range tail records at or beyond the historic boundary
    // (older versions live in the historic store, serialized below).
    {
      std::string body;
      uint64_t count = 0;
      for (uint32_t seq = boundary > 0 ? boundary : 1; seq <= last; ++seq) {
        Value start =
            ResolveStartForCapture(t.txn_manager_, r->updates.StartTimeSlot(seq));
        if (start == kNull) continue;  // reserved, never published
        Value enc = r->updates.Read(seq, kTailSchemaEncoding);
        PutVarint64(&body, seq);
        PutVarint64(&body, start);
        PutVarint64(&body, r->updates.Read(seq, kTailIndirection));
        PutVarint64(&body, r->updates.Read(seq, kTailBaseRid));
        PutVarint64(&body, enc);
        for (BitIter it(SchemaColumns(enc)); it; ++it) {
          PutVarint64(&body, r->updates.Read(
                                 seq, kTailMetaColumns +
                                          static_cast<uint32_t>(*it)));
        }
        ++count;
      }
      std::string p;
      PutVarint64(&p, id);
      PutVarint64(&p, count);
      p.append(body);
      LSTORE_RETURN_IF_ERROR(w.WriteFrame(FrameType::kUpdateRecords, p));
    }

    // Table-level tail pages of the not-yet-based suffix (Section 3.2);
    // the based prefix lives in the base segments above.
    {
      std::string p;
      PutVarint64(&p, id);
      PutVarint64(&p, based);
      PutVarint64(&p, occupied > based ? occupied - based : 0);
      for (uint32_t slot = based; slot < occupied; ++slot) {
        Value start = ResolveStartForCapture(
            t.txn_manager_, r->inserts.StartTimeSlot(slot + 1));
        PutVarint64(&p, start);
        for (ColumnId c = 0; c < ncols; ++c) {
          PutVarint64(&p, r->inserts.Read(slot + 1, kTailMetaColumns + c));
        }
      }
      LSTORE_RETURN_IF_ERROR(w.WriteFrame(FrameType::kInsertRecords, p));
    }

    // Historic store (Section 4.3): versions below the boundary.
    HistoricStore* hist = r->historic.load(std::memory_order_acquire);
    if (hist != nullptr) {
      std::string p;
      PutVarint64(&p, id);
      hist->EncodeTo(&p);
      LSTORE_RETURN_IF_ERROR(w.WriteFrame(FrameType::kHistoric, p));
    }
    ++ranges_written;
  }

  {
    std::string p;
    PutVarint64(&p, ranges_written);
    LSTORE_RETURN_IF_ERROR(w.WriteFrame(FrameType::kTableFooter, p));
  }
  LSTORE_RETURN_IF_ERROR(w.Finish());
  LSTORE_RETURN_IF_ERROR(file.Sync());
  if (file_checksum != nullptr) *file_checksum = w.file_checksum();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// CheckpointIO — restore
// ---------------------------------------------------------------------------

Status CheckpointIO::LoadTable(Table* t, const std::string& path,
                               uint64_t expected_checksum) {
  FrameReader reader;
  LSTORE_RETURN_IF_ERROR(reader.Open(path, kCheckpointMagic));
  if (expected_checksum != 0 && reader.file_checksum() != expected_checksum) {
    return Status::Corruption("checkpoint file checksum mismatch: " + path);
  }

  const uint32_t ncols = t->schema_.num_columns();
  const uint32_t nphys = ncols + kBaseMetaColumns;
  const uint32_t range_size = t->config_.range_size;
  bool header_seen = false, footer_seen = false;
  uint64_t ranges_seen = 0, nranges = 0;
  // A range named by a frame: only ids below the header's range count,
  // which the directory can hold.
  auto range_of = [&](uint64_t id) -> Table::Range* {
    return header_seen && id < nranges ? t->EnsureRange(id) : nullptr;
  };
  // The base segment frames' common prefix.
  auto segment_prefix = [&](std::string_view p, size_t* pos,
                            Table::Range** r, uint64_t* pc,
                            std::unique_ptr<BaseSegment>* seg) -> Status {
    uint64_t id, tps, num_slots;
    if (!GetU64(p, pos, &id) || !GetU64(p, pos, pc) ||
        !GetU64(p, pos, &tps) || !GetU64(p, pos, &num_slots)) {
      return Status::Corruption("bad base segment");
    }
    if (*pc >= nphys) return Status::Corruption("segment column overflow");
    if (num_slots > range_size) {
      return Status::Corruption("segment slot count past range_size");
    }
    *r = range_of(id);
    if (*r == nullptr) return Status::Corruption("segment range id overflow");
    *seg = std::make_unique<BaseSegment>();
    (*seg)->tps = static_cast<uint32_t>(tps);
    (*seg)->num_slots = static_cast<uint32_t>(num_slots);
    return Status::OK();
  };

  FrameType type;
  std::string_view p;
  while (reader.Next(&type, &p)) {
    size_t pos = 0;
    switch (type) {
      case FrameType::kTableHeader: {
        std::string name;
        uint64_t file_ncols, file_range_size, next_row;
        if (!GetString(p, &pos, &name) || !GetU64(p, &pos, &file_ncols)) {
          return Status::Corruption("bad table header");
        }
        for (uint64_t c = 0; c < file_ncols; ++c) {
          std::string col;
          if (!GetString(p, &pos, &col)) {
            return Status::Corruption("bad table header");
          }
        }
        if (!GetU64(p, &pos, &file_range_size) ||
            !GetU64(p, &pos, &next_row) || !GetU64(p, &pos, &nranges)) {
          return Status::Corruption("bad table header");
        }
        if (file_ncols != ncols) {
          return Status::Corruption("checkpoint schema arity mismatch");
        }
        if (file_range_size != range_size) {
          return Status::Corruption("checkpoint range_size mismatch");
        }
        if (nranges > t->ranges_.limit()) {
          return Status::Corruption("checkpoint range count overflow");
        }
        t->next_row_.store(next_row, std::memory_order_release);
        header_seen = true;
        break;
      }
      case FrameType::kRangeState: {
        uint64_t id, occupied, based, tps, boundary, last;
        if (!GetU64(p, &pos, &id) || !GetU64(p, &pos, &occupied) ||
            !GetU64(p, &pos, &based) || !GetU64(p, &pos, &tps) ||
            !GetU64(p, &pos, &boundary) || !GetU64(p, &pos, &last)) {
          return Status::Corruption("bad range state");
        }
        if (occupied > range_size || based > range_size) {
          return Status::Corruption("range state slot past range_size");
        }
        Table::Range* r = range_of(id);
        if (r == nullptr) return Status::Corruption("range id overflow");
        r->occupied.store(static_cast<uint32_t>(occupied),
                          std::memory_order_release);
        r->based.store(static_cast<uint32_t>(based),
                       std::memory_order_release);
        r->merged_tps.store(static_cast<uint32_t>(tps),
                            std::memory_order_release);
        r->historic_boundary.store(static_cast<uint32_t>(boundary),
                                   std::memory_order_release);
        r->updates.AdvanceSeq(static_cast<uint32_t>(last));
        ++ranges_seen;
        break;
      }
      case FrameType::kBaseSegment: {
        Table::Range* r;
        uint64_t pc;
        std::unique_ptr<BaseSegment> seg;
        LSTORE_RETURN_IF_ERROR(segment_prefix(p, &pos, &r, &pc, &seg));
        std::unique_ptr<CompressedColumn> col;
        LSTORE_RETURN_IF_ERROR(CompressedColumn::Parse(p.substr(pos), &col));
        if (col->size() != seg->num_slots) {
          return Status::Corruption("base segment slot count mismatch");
        }
        seg->page = t->MakeSegmentPage(std::move(col));
        delete r->base[pc].exchange(seg.release(), std::memory_order_acq_rel);
        break;
      }
      case FrameType::kBaseSegmentRef: {
        // Lazy restore: map the segment onto its durable store bytes
        // without reading them — recovery cost for based data becomes
        // O(hot set), not O(table). Bounds are validated eagerly so a
        // truncated store fails recovery with a clean error instead of
        // a demand-load fault later.
        Table::Range* r;
        uint64_t pc, offset, length, crc;
        std::unique_ptr<BaseSegment> seg;
        LSTORE_RETURN_IF_ERROR(segment_prefix(p, &pos, &r, &pc, &seg));
        CompressedColumn::Header layout;
        if (!GetU64(p, &pos, &offset) || !GetU64(p, &pos, &length) ||
            !GetU64(p, &pos, &crc) ||
            p.size() - pos != CompressedColumn::kHeaderBytes ||
            !CompressedColumn::GetHeader(p.substr(pos), &layout) ||
            layout.size != seg->num_slots ||
            CompressedColumn::SerializedBytes(layout) != length) {
          return Status::Corruption("bad base segment ref");
        }
        if (t->segment_store_ == nullptr ||
            !t->segment_store_->Contains(offset, length)) {
          return Status::Corruption(
              "checkpoint references missing segment store bytes: " + path);
        }
        if (t->config_.verify_segment_refs) {
          // Opt-in eager integrity check: read the range back and
          // compare checksums so store corruption surfaces as a clean
          // recovery error (the segment still restores cold below).
          std::string bytes;
          Status vs = t->segment_store_->ReadAt(offset, length, &bytes);
          if (!vs.ok() ||
              Crc32c(bytes.data(), bytes.size()) !=
                  static_cast<uint32_t>(crc)) {
            return Status::Corruption(
                "checkpoint segment reference failed verification: " + path);
          }
        }
        seg->page = t->MakeColdSegmentPage(offset, length,
                                           static_cast<uint32_t>(crc), layout);
        delete r->base[pc].exchange(seg.release(), std::memory_order_acq_rel);
        break;
      }
      case FrameType::kUpdateRecords: {
        uint64_t id, count;
        if (!GetU64(p, &pos, &id) || !GetU64(p, &pos, &count)) {
          return Status::Corruption("bad update records");
        }
        Table::Range* r = range_of(id);
        if (r == nullptr) return Status::Corruption("range id overflow");
        for (uint64_t i = 0; i < count; ++i) {
          uint64_t seq, start, backptr, base_rid, enc;
          if (!GetU64(p, &pos, &seq) || !GetU64(p, &pos, &start) ||
              !GetU64(p, &pos, &backptr) || !GetU64(p, &pos, &base_rid) ||
              !GetU64(p, &pos, &enc)) {
            return Status::Corruption("bad update record");
          }
          uint32_t s = static_cast<uint32_t>(seq);
          r->updates.AdvanceSeq(s);
          r->updates.Write(s, kTailIndirection, backptr);
          r->updates.Write(s, kTailBaseRid, base_rid);
          r->updates.Write(s, kTailSchemaEncoding, enc);
          for (BitIter it(SchemaColumns(enc)); it; ++it) {
            uint64_t v;
            if (!GetU64(p, &pos, &v)) {
              return Status::Corruption("bad update record values");
            }
            r->updates.Write(s, kTailMetaColumns + static_cast<uint32_t>(*it),
                             v);
          }
          r->updates.StartTimeSlot(s)->store(start, std::memory_order_release);
        }
        break;
      }
      case FrameType::kInsertRecords: {
        uint64_t id, first_slot, count;
        if (!GetU64(p, &pos, &id) || !GetU64(p, &pos, &first_slot) ||
            !GetU64(p, &pos, &count)) {
          return Status::Corruption("bad insert records");
        }
        if (first_slot > range_size || count > range_size - first_slot) {
          return Status::Corruption("insert record slot past range_size");
        }
        Table::Range* r = range_of(id);
        if (r == nullptr) return Status::Corruption("range id overflow");
        for (uint64_t i = 0; i < count; ++i) {
          uint32_t slot = static_cast<uint32_t>(first_slot + i);
          uint32_t seq = slot + 1;
          uint64_t start;
          if (!GetU64(p, &pos, &start)) {
            return Status::Corruption("bad insert record");
          }
          r->inserts.AdvanceSeq(seq);
          for (ColumnId c = 0; c < ncols; ++c) {
            uint64_t v;
            if (!GetU64(p, &pos, &v)) {
              return Status::Corruption("bad insert record values");
            }
            r->inserts.Write(seq, kTailMetaColumns + c, v);
          }
          r->inserts.Write(seq, kTailIndirection, 0);
          r->inserts.Write(seq, kTailSchemaEncoding, 0);
          r->inserts.Write(seq, kTailBaseRid, slot);
          r->inserts.StartTimeSlot(seq)->store(start,
                                               std::memory_order_release);
        }
        break;
      }
      case FrameType::kHistoric: {
        uint64_t id;
        if (!GetU64(p, &pos, &id)) return Status::Corruption("bad historic");
        Table::Range* r = range_of(id);
        if (r == nullptr) return Status::Corruption("range id overflow");
        HistoricStore* hist =
            HistoricStore::DecodeFrom(p.data() + pos, p.size() - pos);
        if (hist == nullptr) {
          return Status::Corruption("bad historic store encoding");
        }
        HistoricStore* old =
            r->historic.exchange(hist, std::memory_order_acq_rel);
        delete old;
        break;
      }
      case FrameType::kTableFooter: {
        uint64_t count;
        if (!GetU64(p, &pos, &count)) return Status::Corruption("bad footer");
        if (count != ranges_seen) {
          return Status::Corruption("checkpoint truncated: range count");
        }
        footer_seen = true;
        break;
      }
      default:
        break;  // forward compatibility: ignore unknown frames
    }
  }
  LSTORE_RETURN_IF_ERROR(reader.status());
  if (!header_seen || !footer_seen) {
    return Status::Corruption("checkpoint missing header or footer");
  }
  return Status::OK();
}

}  // namespace lstore
