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
    Range* r = t.GetRange(id);
    if (r == nullptr) continue;
    LSTORE_RETURN_IF_ERROR(r->Capture([&](const RangeState& st) -> Status {
      std::string p;
      for (uint64_t f : {id, st.occupied, st.based, st.tps, st.boundary,
                         st.last}) {
        PutVarint64(&p, f);
      }
      LSTORE_RETURN_IF_ERROR(w.WriteFrame(FrameType::kRangeState, p));

      // Consolidated base segments (read-optimized columns + lineage).
      // A segment already written through to the table's durable store
      // is checkpointed by reference — no payload I/O, and a cold
      // (evicted) segment is never faulted in just to checkpoint it.
      // SyncSegmentStore() runs before the manifest is published, so
      // every referenced byte range is durable first. Any other segment
      // is copied inline in its serialized compressed form.
      for (uint32_t pc = 0; pc < nphys; ++pc) {
        const BaseSegment* seg = r->segment(pc);
        if (seg == nullptr) continue;
        const SegmentPage* page = seg->page.get();
        p.clear();
        for (uint64_t f : {id, uint64_t{pc}, uint64_t{seg->tps},
                           uint64_t{seg->num_slots}}) {
          PutVarint64(&p, f);
        }
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
      // A start time still holding an active txn id is captured as is:
      // its commit or abort record lies beyond the log watermark and
      // resolves it during replay. A record not published yet (start
      // ∅) is omitted: writers publish the start time BEFORE appending
      // to the redo log, so its append lies beyond the watermark taken
      // before this capture, and the retained log tail replays it.
      std::string body;
      uint64_t count = 0;
      for (uint32_t seq = st.boundary; seq <= st.last; ++seq) {
        const TailRecord rec =
            r->ReadRecord(TailKind::kUpdate, seq, /*settle=*/true);
        if (rec.start == kNull) continue;
        for (uint64_t f : {uint64_t{seq}, rec.start, rec.backptr,
                           rec.base_slot, rec.encoding}) {
          PutVarint64(&body, f);
        }
        for (int i = 0; i < PopCount(rec.cols); ++i) {
          PutVarint64(&body, rec.values[i]);
        }
        ++count;
      }
      p.clear();
      PutVarint64(&p, id);
      PutVarint64(&p, count);
      p.append(body);
      LSTORE_RETURN_IF_ERROR(w.WriteFrame(FrameType::kUpdateRecords, p));

      // Table-level tail pages of the not-yet-based suffix (Section 3.2);
      // the based prefix lives in the base segments above.
      p.clear();
      PutVarint64(&p, id);
      PutVarint64(&p, st.based);
      PutVarint64(&p, st.occupied > st.based ? st.occupied - st.based : 0);
      for (uint32_t slot = st.based; slot < st.occupied; ++slot) {
        const TailRecord rec =
            r->ReadRecord(TailKind::kInsert, slot + 1, /*settle=*/true);
        PutVarint64(&p, rec.start);
        for (ColumnId c = 0; c < ncols; ++c) PutVarint64(&p, rec.Get(c));
      }
      LSTORE_RETURN_IF_ERROR(w.WriteFrame(FrameType::kInsertRecords, p));

      // Historic store (Section 4.3): versions below the boundary.
      if (const HistoricStore* hist = r->historic()) {
        p.clear();
        PutVarint64(&p, id);
        hist->EncodeTo(&p);
        LSTORE_RETURN_IF_ERROR(w.WriteFrame(FrameType::kHistoric, p));
      }
      return Status::OK();
    }));
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
  auto range_of = [&](uint64_t id) -> Range* {
    return header_seen && id < nranges ? t->EnsureRange(id) : nullptr;
  };
  // The base segment frames' common prefix.
  auto segment_prefix = [&](std::string_view p, size_t* pos,
                            Range** r, uint64_t* pc,
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
        Range* r = range_of(id);
        if (r == nullptr) return Status::Corruption("range id overflow");
        LSTORE_RETURN_IF_ERROR(
            r->RestoreState(RangeState{occupied, based, tps, boundary, last}));
        ++ranges_seen;
        break;
      }
      case FrameType::kBaseSegment: {
        Range* r;
        uint64_t pc;
        std::unique_ptr<BaseSegment> seg;
        LSTORE_RETURN_IF_ERROR(segment_prefix(p, &pos, &r, &pc, &seg));
        std::unique_ptr<CompressedColumn> col;
        LSTORE_RETURN_IF_ERROR(CompressedColumn::Parse(p.substr(pos), &col));
        if (col->size() != seg->num_slots) {
          return Status::Corruption("base segment slot count mismatch");
        }
        seg->page = t->MakeSegmentPage(std::move(col));
        r->InstallSegment(static_cast<uint32_t>(pc), seg.release());
        break;
      }
      case FrameType::kBaseSegmentRef: {
        // Lazy restore: map the segment onto its durable store bytes
        // without reading them — recovery cost for based data becomes
        // O(hot set), not O(table). Bounds are validated eagerly so a
        // truncated store fails recovery with a clean error instead of
        // a demand-load fault later.
        Range* r;
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
        r->InstallSegment(static_cast<uint32_t>(pc), seg.release());
        break;
      }
      case FrameType::kUpdateRecords: {
        uint64_t id, count;
        if (!GetU64(p, &pos, &id) || !GetU64(p, &pos, &count)) {
          return Status::Corruption("bad update records");
        }
        Range* r = range_of(id);
        if (r == nullptr) return Status::Corruption("range id overflow");
        for (uint64_t i = 0; i < count; ++i) {
          TailRecord rec;
          if (!GetU64(p, &pos, &rec.seq) || !GetU64(p, &pos, &rec.start) ||
              !GetU64(p, &pos, &rec.backptr) ||
              !GetU64(p, &pos, &rec.base_slot) ||
              !GetU64(p, &pos, &rec.encoding)) {
            return Status::Corruption("bad update record");
          }
          rec.cols = SchemaColumns(rec.encoding);
          for (int c = 0; c < PopCount(rec.cols); ++c) {
            if (!GetU64(p, &pos, &rec.values[c])) {
              return Status::Corruption("bad update record values");
            }
          }
          LSTORE_RETURN_IF_ERROR(r->Apply(TailKind::kUpdate, rec));
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
        Range* r = range_of(id);
        if (r == nullptr) return Status::Corruption("range id overflow");
        for (uint64_t i = 0; i < count; ++i) {
          TailRecord rec;
          rec.base_slot = first_slot + i;
          rec.seq = rec.base_slot + 1;
          rec.cols = t->range_ctx_.all_columns;
          if (!GetU64(p, &pos, &rec.start)) {
            return Status::Corruption("bad insert record");
          }
          for (ColumnId c = 0; c < ncols; ++c) {
            uint64_t v;
            if (!GetU64(p, &pos, &v)) {
              return Status::Corruption("bad insert record values");
            }
            if (c < 64) rec.values[c] = v;
          }
          LSTORE_RETURN_IF_ERROR(r->Apply(TailKind::kInsert, rec));
        }
        break;
      }
      case FrameType::kHistoric: {
        uint64_t id;
        if (!GetU64(p, &pos, &id)) return Status::Corruption("bad historic");
        Range* r = range_of(id);
        if (r == nullptr) return Status::Corruption("range id overflow");
        HistoricStore* hist =
            HistoricStore::DecodeFrom(p.data() + pos, p.size() - pos);
        if (hist == nullptr) {
          return Status::Corruption("bad historic store encoding");
        }
        r->InstallHistoric(hist);
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
