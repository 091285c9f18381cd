// Historic compression (Section 4.3) and its driver,
// Table::RunHistoricCompression.
//
// Encoded layout per base slot (written in ascending slot order):
//   varint  slot
//   varint  version_count
//   delta   seq[count]           (ascending)
//   delta   start_time[count]
//   varint  schema_encoding[count]
//   varint  mask[count]
//   per column (ascending column id over the union of masks):
//     delta-encoded values of the versions materializing that column
//     (version inlining: "different versions are stored inline and
//      contiguously ... delta-compression is applied across different
//      versions").

#include "core/historic.h"

#include <algorithm>
#include <map>

#include "common/bitutil.h"
#include "core/table.h"
#include "obs/span.h"
#include "storage/compression/varint.h"

namespace lstore {

// ---------------------------------------------------------------------------
// HistoricStore
// ---------------------------------------------------------------------------

void HistoricStore::EncodeSlot(uint32_t slot,
                               const std::vector<Version>& versions) {
  offsets_[slot] = blob_.size();
  PutVarint64(&blob_, slot);
  PutVarint64(&blob_, versions.size());
  // Seqs and start times: ascending, delta-friendly.
  uint64_t prev = 0;
  for (const Version& v : versions) {
    PutVarint64(&blob_, ZigzagEncode(static_cast<int64_t>(v.seq - prev)));
    prev = v.seq;
  }
  prev = 0;
  for (const Version& v : versions) {
    PutVarint64(&blob_,
                ZigzagEncode(static_cast<int64_t>(v.start_time - prev)));
    prev = v.start_time;
  }
  for (const Version& v : versions) PutVarint64(&blob_, v.schema_encoding);
  for (const Version& v : versions) PutVarint64(&blob_, v.mask);
  ColumnMask union_mask = 0;
  for (const Version& v : versions) union_mask |= v.mask;
  for (BitIter it(union_mask); it; ++it) {
    ColumnMask bit = 1ull << *it;
    uint64_t col_prev = 0;
    for (const Version& v : versions) {
      if ((v.mask & bit) == 0) continue;
      int vi = 0;
      for (BitIter b(v.mask); b; ++b, ++vi) {
        if (*b == *it) break;
      }
      Value val = v.values[vi];
      PutVarint64(&blob_,
                  ZigzagEncode(static_cast<int64_t>(val - col_prev)));
      col_prev = val;
    }
  }
  num_versions_ += versions.size();
}

HistoricStore* HistoricStore::Build(
    uint32_t boundary,
    const std::unordered_map<uint32_t, std::vector<Version>>& per_slot,
    const HistoricStore* previous, uint32_t num_columns) {
  auto* store = new HistoricStore();
  store->boundary_ = boundary;
  store->num_columns_ = num_columns;

  // Union: previous store contents + new versions, ordered by base RID
  // ("tail records are ordered based on the RIDs of their
  // corresponding base records", Section 2.1).
  std::map<uint32_t, std::vector<Version>> merged;
  if (previous != nullptr) {
    for (const auto& [slot, off] : previous->offsets_) {
      merged[slot] = previous->VersionsOf(slot);
    }
  }
  for (const auto& [slot, versions] : per_slot) {
    auto& dst = merged[slot];
    dst.insert(dst.end(), versions.begin(), versions.end());
  }
  for (auto& [slot, versions] : merged) {
    std::sort(versions.begin(), versions.end(),
              [](const Version& a, const Version& b) { return a.seq < b.seq; });
    store->EncodeSlot(slot, versions);
  }
  return store;
}

std::vector<HistoricStore::Version> HistoricStore::VersionsOf(
    uint32_t slot) const {
  std::vector<Version> out;
  auto it = offsets_.find(slot);
  if (it == offsets_.end()) return out;
  size_t pos = it->second;
  const char* data = blob_.data();
  size_t size = blob_.size();
  uint64_t stored_slot, count;
  if (!GetVarint64(data, size, &pos, &stored_slot)) return out;
  if (!GetVarint64(data, size, &pos, &count)) return out;
  out.resize(count);
  uint64_t prev = 0;
  for (auto& v : out) {
    uint64_t zz;
    if (!GetVarint64(data, size, &pos, &zz)) return {};
    prev += static_cast<uint64_t>(ZigzagDecode(zz));
    v.seq = static_cast<uint32_t>(prev);
  }
  prev = 0;
  for (auto& v : out) {
    uint64_t zz;
    if (!GetVarint64(data, size, &pos, &zz)) return {};
    prev += static_cast<uint64_t>(ZigzagDecode(zz));
    v.start_time = prev;
  }
  for (auto& v : out) {
    if (!GetVarint64(data, size, &pos, &v.schema_encoding)) return {};
  }
  for (auto& v : out) {
    if (!GetVarint64(data, size, &pos, &v.mask)) return {};
    v.values.assign(PopCount(v.mask), kNull);
  }
  ColumnMask union_mask = 0;
  for (const auto& v : out) union_mask |= v.mask;
  for (BitIter it(union_mask); it; ++it) {
    ColumnMask bit = 1ull << *it;
    uint64_t col_prev = 0;
    for (auto& v : out) {
      if ((v.mask & bit) == 0) continue;
      uint64_t zz;
      if (!GetVarint64(data, size, &pos, &zz)) return {};
      col_prev += static_cast<uint64_t>(ZigzagDecode(zz));
      int vi = 0;
      for (BitIter b(v.mask); b; ++b, ++vi) {
        if (*b == *it) break;
      }
      v.values[vi] = col_prev;
    }
  }
  return out;
}

std::vector<uint32_t> HistoricStore::Slots() const {
  std::vector<uint32_t> out;
  out.reserve(offsets_.size());
  for (const auto& [slot, off] : offsets_) out.push_back(slot);
  return out;
}

void HistoricStore::EncodeTo(std::string* out) const {
  PutVarint64(out, boundary_);
  PutVarint64(out, num_columns_);
  PutVarint64(out, num_versions_);
  PutVarint64(out, offsets_.size());
  for (const auto& [slot, off] : offsets_) {
    PutVarint64(out, slot);
    PutVarint64(out, off);
  }
  PutVarint64(out, blob_.size());
  out->append(blob_);
}

HistoricStore* HistoricStore::DecodeFrom(const char* data, size_t size) {
  auto store = std::unique_ptr<HistoricStore>(new HistoricStore());
  size_t pos = 0;
  uint64_t v;
  if (!GetVarint64(data, size, &pos, &v)) return nullptr;
  store->boundary_ = static_cast<uint32_t>(v);
  if (!GetVarint64(data, size, &pos, &v)) return nullptr;
  store->num_columns_ = static_cast<uint32_t>(v);
  if (!GetVarint64(data, size, &pos, &v)) return nullptr;
  store->num_versions_ = v;
  uint64_t count;
  if (!GetVarint64(data, size, &pos, &count)) return nullptr;
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t slot, off;
    if (!GetVarint64(data, size, &pos, &slot)) return nullptr;
    if (!GetVarint64(data, size, &pos, &off)) return nullptr;
    store->offsets_[static_cast<uint32_t>(slot)] = off;
  }
  uint64_t blob_size;
  if (!GetVarint64(data, size, &pos, &blob_size)) return nullptr;
  if (blob_size > size - pos) return nullptr;  // overflow-safe bound
  store->blob_.assign(data + pos, blob_size);
  return store.release();
}

bool HistoricStore::ResolveColumn(uint32_t slot, uint32_t entry_seq,
                                  ColumnId col, Timestamp as_of, Value* out,
                                  bool* deleted) const {
  auto versions = VersionsOf(slot);
  if (deleted != nullptr) *deleted = false;
  bool first = true;
  for (auto it = versions.rbegin(); it != versions.rend(); ++it) {
    if (it->seq > entry_seq) continue;
    if (!(it->start_time < as_of)) continue;
    if (first) {
      first = false;
      if (IsDeleteRecord(it->schema_encoding)) {
        if (deleted != nullptr) *deleted = true;
        return false;
      }
    }
    if ((it->mask & (1ull << col)) != 0) {
      int vi = 0;
      for (BitIter b(it->mask); b; ++b, ++vi) {
        if (*b == static_cast<int>(col)) break;
      }
      *out = it->values[vi];
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Table::RunHistoricCompression (Section 4.3)
// ---------------------------------------------------------------------------

size_t Table::RunHistoricCompression(Range& r) {
  // Timed manually — early returns (nothing to compress) are not
  // samples in the duration histogram.
  const uint64_t compress_t0 = Stage::Now();
  SpinGuard g(r.merge_latch);
  uint32_t old_boundary = r.historic_boundary.load(std::memory_order_acquire);
  uint32_t tps = r.merged_tps.load(std::memory_order_acquire);
  if (tps < old_boundary) return 0;

  // Only versions outside every active snapshot may move: approximate
  // the oldest query snapshot by the oldest live transaction's begin
  // time (live entries include active scans' registering txns).
  Timestamp oldest = kMaxTimestamp;
  // A coarse, conservative bound: the current clock value. Readers
  // that started earlier hold epoch pins; since we only *move* (not
  // lose) versions and tail pages are reclaimed through the epoch
  // manager, using the clock is safe for data, and commit times above
  // the clock cannot exist.
  (void)oldest;

  uint32_t new_boundary = tps + 1;  // compress everything merged
  if (new_boundary <= old_boundary) return 0;

  // Collect versions [old_boundary, new_boundary).
  std::unordered_map<uint32_t, std::vector<HistoricStore::Version>> per_slot;
  size_t moved = 0;
  for (uint32_t seq = old_boundary; seq < new_boundary; ++seq) {
    Value raw = r.updates.Read(seq, kTailStartTime);
    if (raw == kNull || IsAbortedStamp(raw) || IsTxnId(raw)) {
      continue;  // tombstones are reclaimed here (Section 5.1.3)
    }
    HistoricStore::Version v;
    v.seq = seq;
    v.start_time = raw;
    v.schema_encoding = r.updates.Read(seq, kTailSchemaEncoding);
    v.mask = SchemaColumns(v.schema_encoding);
    for (BitIter it(v.mask); it; ++it) {
      v.values.push_back(
          r.updates.Read(seq, kTailMetaColumns + static_cast<uint32_t>(*it)));
    }
    uint32_t slot = static_cast<uint32_t>(r.updates.Read(seq, kTailBaseRid));
    per_slot[slot].push_back(std::move(v));
    ++moved;
  }

  HistoricStore* old_store = r.historic.load(std::memory_order_acquire);
  HistoricStore* fresh = HistoricStore::Build(
      new_boundary - 1, per_slot, old_store, schema_.num_columns());

  // Publish: store first, then the boundary, then reclaim the raw
  // tail pages once readers drain (page-directory pointer swap
  // analogue; Section 4.3 "the page directory is updated by swapping
  // the pointers").
  r.historic.store(fresh, std::memory_order_release);
  r.historic_boundary.store(new_boundary, std::memory_order_release);
  Range* rp = &r;
  epochs_.Retire([rp, new_boundary, old_store] {
    rp->updates.DropRecordsBelow(new_boundary);
    delete old_store;
  });

  obs_.historic_compressions->Increment();
  obs_.historic_versions->Add(moved);
  Stage::Record(obs_.merge_historic_ns, nullptr, 0, compress_t0,
                Stage::Now() - compress_t0);
  return moved;
}

}  // namespace lstore
