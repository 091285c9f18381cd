// Historic store of compressed tail records (Section 4.3); the pass
// that fills it is Range::CompressHistoric.
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
#include <memory>

#include "common/bitutil.h"
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

const HistoricStore::Version* HistoricStore::Newest(
    const std::vector<Version>& versions, uint32_t at_or_below,
    Timestamp as_of) {
  auto it = std::upper_bound(
      versions.begin(), versions.end(), at_or_below,
      [](uint32_t seq, const Version& v) { return seq < v.seq; });
  while (it != versions.begin()) {
    --it;
    if (it->start_time < as_of && !IsSupersededRecord(it->schema_encoding)) {
      return &*it;
    }
  }
  return nullptr;
}

}  // namespace lstore
