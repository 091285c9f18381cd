#include "index/primary_index.h"

#include <algorithm>
#include <utility>

#include "common/inline_buffer.h"

namespace lstore {

namespace {

constexpr size_t kMinCapacity = 16;

/// Multiply-shift onto [0, capacity) from the hash's top 32 bits, so
/// capacities need not be powers of two. The shard choice fixes bits
/// 32..37 within a shard; they move the home slot by less than one
/// for any capacity below 2^26.
size_t Home(uint64_t hash, size_t capacity) {
  return static_cast<size_t>(((hash >> 32) * capacity) >> 32);
}

size_t Next(size_t i, size_t capacity) { return i + 1 == capacity ? 0 : i + 1; }

}  // namespace

PrimaryIndex::PrimaryIndex(size_t num_shards) : shards_(num_shards) {}

template <typename Slot>
Rid PrimaryIndex::SlotTable<Slot>::Find(Value key) const {
  const size_t cap = slots.size();
  if (cap == 0) return kInvalidRid;
  for (size_t i = Home(Hash(key), cap);; i = Next(i, cap)) {
    const Slot& s = slots[i];
    if (s.rid == kEmpty) return kInvalidRid;
    if (s.key == key && s.rid != kTombstone) return s.rid;
  }
}

template <typename Slot>
void PrimaryIndex::SlotTable<Slot>::Reserve(size_t extra) {
  const size_t cap = slots.size();
  // Probes end at an empty slot, so some must always remain.
  if ((live + tombstones + extra) * 5 <= cap * 4) return;
  if (cap > 0 && (live + extra) * 2 <= cap) {
    Rehash(cap);  // dropping the tombstones is enough
    return;
  }
  size_t grown = std::max(kMinCapacity, cap * 3 / 2);
  while ((live + extra) * 5 > grown * 4) grown = grown * 3 / 2;
  Rehash(grown);
}

template <typename Slot>
bool PrimaryIndex::SlotTable<Slot>::Place(Value key, Rid rid) {
  if (rid > kMaxRid) return false;
  const size_t cap = slots.size();
  size_t target = cap;  // the first tombstone on the probe path
  for (size_t i = Home(Hash(key), cap);; i = Next(i, cap)) {
    Slot& s = slots[i];
    if (s.rid == kEmpty) {
      if (target == cap) {
        target = i;
      } else {
        --tombstones;
      }
      slots[target] = Slot{static_cast<decltype(Slot::key)>(key),
                           static_cast<uint32_t>(rid)};
      ++live;
      return true;
    }
    if (s.rid == kTombstone) {
      if (target == cap) target = i;
    } else if (s.key == key) {
      return false;
    }
  }
}

template <typename Slot>
bool PrimaryIndex::SlotTable<Slot>::Erase(Value key) {
  const size_t cap = slots.size();
  if (cap == 0) return false;
  for (size_t i = Home(Hash(key), cap);; i = Next(i, cap)) {
    Slot& s = slots[i];
    if (s.rid == kEmpty) return false;
    if (s.key == key && s.rid != kTombstone) {
      s.rid = kTombstone;
      --live;
      ++tombstones;
      return true;
    }
  }
}

template <typename Slot>
void PrimaryIndex::SlotTable<Slot>::Rehash(size_t capacity) {
  std::vector<Slot> old =
      std::exchange(slots, std::vector<Slot>(capacity, Slot{0, kEmpty}));
  tombstones = 0;
  for (const Slot& s : old) {
    if (s.rid == kEmpty || s.rid == kTombstone) continue;
    size_t i = Home(Hash(s.key), capacity);
    while (slots[i].rid != kEmpty) i = Next(i, capacity);
    slots[i] = s;
  }
}

template <typename Slot>
void PrimaryIndex::SlotTable<Slot>::Prefetch(Value key) const {
  __builtin_prefetch(&slots[Home(Hash(key), slots.size())], 1);
}

template <typename Fn>
void PrimaryIndex::ForEachShardGroup(const Value* keys, size_t n,
                                     Fn&& fn) const {
  // Stable counting sort of the positions by shard, so each touched
  // shard is visited once and sees its keys in batch order.
  const size_t nshards = shards_.size();
  InlineBuffer<uint32_t> shard_of(n), order(n);
  InlineBuffer<uint32_t, 64> end(nshards);
  std::fill(end.data(), end.data() + nshards, 0u);
  for (size_t i = 0; i < n; ++i) {
    shard_of[i] = static_cast<uint32_t>(ShardOf(keys[i]));
    ++end[shard_of[i]];
  }
  uint32_t begin = 0;
  for (size_t s = 0; s < nshards; ++s) {
    const uint32_t count = end[s];
    end[s] = begin;
    begin += count;
  }
  for (size_t i = 0; i < n; ++i) {
    order[end[shard_of[i]]++] = static_cast<uint32_t>(i);
  }
  begin = 0;
  for (size_t s = 0; s < nshards; ++s) {
    if (end[s] > begin) fn(shards_[s], order.data() + begin, end[s] - begin);
    begin = end[s];
  }
}

bool PrimaryIndex::Insert(Value key, Rid rid) {
  Shard& s = shards_[ShardOf(key)];
  SpinGuard g(s.latch);
  if (IsNarrow(key)) {
    s.narrow.Reserve(1);
    return s.narrow.Place(key, rid);
  }
  s.wide.Reserve(1);
  return s.wide.Place(key, rid);
}

void PrimaryIndex::InsertBatch(const Value* keys, const Rid* rids, size_t n,
                               bool* ok) {
  // Home slots are random cache misses in a large index: touch each
  // one this many keys ahead of its probe.
  constexpr size_t kPrefetchAhead = 8;
  ForEachShardGroup(keys, n, [&](Shard& s, const uint32_t* pos,
                                 size_t count) {
    SpinGuard g(s.latch);
    size_t narrow = 0;
    for (size_t j = 0; j < count; ++j) narrow += IsNarrow(keys[pos[j]]);
    s.narrow.Reserve(narrow);
    s.wide.Reserve(count - narrow);
    auto prefetch = [&](size_t j) {
      if (j >= count) return;
      const Value key = keys[pos[j]];
      if (IsNarrow(key)) {
        s.narrow.Prefetch(key);
      } else {
        s.wide.Prefetch(key);
      }
    };
    for (size_t j = 0; j < kPrefetchAhead; ++j) prefetch(j);
    for (size_t j = 0; j < count; ++j) {
      prefetch(j + kPrefetchAhead);
      const Value key = keys[pos[j]];
      ok[pos[j]] = IsNarrow(key) ? s.narrow.Place(key, rids[pos[j]])
                                 : s.wide.Place(key, rids[pos[j]]);
    }
  });
}

Rid PrimaryIndex::Get(Value key) const {
  const Shard& s = shards_[ShardOf(key)];
  SpinGuard g(s.latch);
  return IsNarrow(key) ? s.narrow.Find(key) : s.wide.Find(key);
}

void PrimaryIndex::MultiGet(const Value* keys, size_t n, Rid* out) const {
  if (n == 1) {
    out[0] = Get(keys[0]);
    return;
  }
  ForEachShardGroup(keys, n, [&](const Shard& s, const uint32_t* pos,
                                 size_t count) {
    SpinGuard g(s.latch);
    for (size_t j = 0; j < count; ++j) {
      const Value key = keys[pos[j]];
      out[pos[j]] = IsNarrow(key) ? s.narrow.Find(key) : s.wide.Find(key);
    }
  });
}

bool PrimaryIndex::Erase(Value key) {
  Shard& s = shards_[ShardOf(key)];
  SpinGuard g(s.latch);
  return IsNarrow(key) ? s.narrow.Erase(key) : s.wide.Erase(key);
}

size_t PrimaryIndex::size() const {
  size_t n = 0;
  for (const auto& s : shards_) {
    SpinGuard g(s.latch);
    n += s.narrow.live + s.wide.live;
  }
  return n;
}

size_t PrimaryIndex::byte_size() const {
  size_t bytes = shards_.size() * sizeof(Shard);
  for (const auto& s : shards_) {
    SpinGuard g(s.latch);
    bytes += s.narrow.slots.capacity() * sizeof(NarrowSlot) +
             s.wide.slots.capacity() * sizeof(WideSlot);
  }
  return bytes;
}

}  // namespace lstore
