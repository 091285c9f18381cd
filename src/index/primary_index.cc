#include "index/primary_index.h"

#include <algorithm>
#include <cassert>
#include <utility>

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

Rid PrimaryIndex::Shard::Find(Value key) const {
  const size_t cap = slots.size();
  if (cap == 0) return kInvalidRid;
  for (size_t i = Home(Hash(key), cap);; i = Next(i, cap)) {
    const Slot& s = slots[i];
    if (s.rid == kEmpty) return kInvalidRid;
    if (s.key == key && s.rid != kTombstone) return s.rid;
  }
}

bool PrimaryIndex::Shard::Insert(Value key, Rid rid) {
  assert(rid != kEmpty && rid != kTombstone);
  // Probes end at an empty slot, so some must always remain.
  if ((live + tombstones + 1) * 5 > slots.size() * 4) {
    const size_t old_cap = slots.size();
    const bool purge = old_cap > 0 && live * 2 <= old_cap;
    Rehash(purge ? old_cap : std::max(kMinCapacity, old_cap * 3 / 2));
  }
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
      slots[target] = Slot{key, rid};
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

bool PrimaryIndex::Shard::Erase(Value key) {
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

void PrimaryIndex::Shard::Rehash(size_t capacity) {
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

bool PrimaryIndex::Insert(Value key, Rid rid) {
  Shard& s = shards_[ShardOf(key)];
  SpinGuard g(s.latch);
  return s.Insert(key, rid);
}

Rid PrimaryIndex::Get(Value key) const {
  const Shard& s = shards_[ShardOf(key)];
  SpinGuard g(s.latch);
  return s.Find(key);
}

void PrimaryIndex::MultiGet(const Value* keys, size_t n, Rid* out) const {
  // Bucket probe positions by shard, then visit each touched shard
  // once (one latch acquisition per shard per batch). The scratch
  // arrays live on the stack for typical batches, on the heap beyond.
  constexpr size_t kStackBatch = 256;
  uint32_t order_stack[kStackBatch];
  uint32_t shard_stack[kStackBatch];
  std::vector<uint32_t> order_heap, shard_heap;
  uint32_t* order = order_stack;
  uint32_t* shard_of = shard_stack;
  if (n > kStackBatch) {
    order_heap.resize(n);
    shard_heap.resize(n);
    order = order_heap.data();
    shard_of = shard_heap.data();
  }
  for (size_t i = 0; i < n; ++i) {
    order[i] = static_cast<uint32_t>(i);
    shard_of[i] = static_cast<uint32_t>(ShardOf(keys[i]));
  }
  std::sort(order, order + n,
            [&](uint32_t a, uint32_t b) { return shard_of[a] < shard_of[b]; });
  size_t i = 0;
  while (i < n) {
    uint32_t shard = shard_of[order[i]];
    const Shard& s = shards_[shard];
    SpinGuard g(s.latch);
    for (; i < n && shard_of[order[i]] == shard; ++i) {
      out[order[i]] = s.Find(keys[order[i]]);
    }
  }
}

bool PrimaryIndex::Erase(Value key) {
  Shard& s = shards_[ShardOf(key)];
  SpinGuard g(s.latch);
  return s.Erase(key);
}

size_t PrimaryIndex::size() const {
  size_t n = 0;
  for (const auto& s : shards_) {
    SpinGuard g(s.latch);
    n += s.live;
  }
  return n;
}

size_t PrimaryIndex::byte_size() const {
  size_t bytes = shards_.size() * sizeof(Shard);
  for (const auto& s : shards_) {
    SpinGuard g(s.latch);
    bytes += s.slots.capacity() * sizeof(Slot);
  }
  return bytes;
}

}  // namespace lstore
