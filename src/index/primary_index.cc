#include "index/primary_index.h"

#include <algorithm>
#include <utility>

#include "common/inline_buffer.h"

namespace lstore {

namespace {

/// A fresh run's least capacity, and the least key count a merge
/// waits for.
constexpr size_t kMinCapacity = 16;
constexpr size_t kMinMerge = 32;
/// A merge waits for fresh keys (and static tombstones) past a quarter
/// of the static run's live keys, and leaves one empty home slot per
/// 19 keys, so the static run is 0.95 full.
constexpr size_t kMergeDiv = 4;
constexpr size_t kRunSlackDiv = 19;
/// Slots a probe compares at once from the key's home.
constexpr size_t kWindow = 8;

/// Slots past a run's homes, for the probe window and for keys
/// displaced past the last home. A merge that needs more retries with
/// a longer tail.
size_t Tail(size_t homes) { return kWindow + std::min<size_t>(56, homes / 16); }

/// Multiply-shift onto [0, capacity) from the hash's top 32 bits, so
/// capacities need not be powers of two and the home rises with those
/// bits. The shard choice fixes bits 32..37 within a shard; they move
/// the home slot by less than one for any capacity below 2^26.
size_t Home(uint64_t hash, size_t capacity) {
  return static_cast<size_t>(((hash >> 32) * capacity) >> 32);
}

}  // namespace

PrimaryIndex::PrimaryIndex(size_t num_shards) : shards_(num_shards) {}

template <typename Slot>
size_t PrimaryIndex::Run<Slot>::Seek(Value key) const {
  const size_t end = slots.size();
  if (key < lo || key > hi) return end;
  const uint64_t hash = Hash(key);
  const size_t home = Home(hash, homes);
  // Most keys lie within kWindow slots of home. Find the window's first
  // slot holding the key's value without branching on the slots (the
  // tail keeps the window in bounds): a branch on where the key lies
  // mispredicts, and the misprediction stalls the next probe behind
  // this one's cache miss. An empty slot's key can equal this one, but
  // the key, when present, lies before every empty slot.
  const Slot* w = slots.data() + home;
  size_t hit = kWindow;
  for (size_t j = kWindow; j-- > 0;) hit = w[j].key == key ? j : hit;
  if (hit != kWindow) return w[hit].rid == kEmpty ? end : home + hit;
  // Absent unless the window's last key still orders before this one.
  const uint64_t order = hash >> 32;
  for (size_t i = home + kWindow - 1; i < end; ++i) {
    const Slot& s = slots[i];
    if (s.rid == kEmpty || Hash(s.key) >> 32 > order) return end;
    if (s.key == key) return i;
  }
  return end;
}

template <typename Slot>
bool PrimaryIndex::Run<Slot>::Place(Value key, Rid rid) {
  const uint64_t hash = Hash(key);
  const size_t end = slots.size();
  size_t i = Home(hash, homes);
  for (; i < end && slots[i].rid != kEmpty; ++i) {
    if (slots[i].key == key) return Revive(i, rid);
    if (Hash(slots[i].key) >> 32 > hash >> 32) break;
  }
  size_t e = i;
  while (e < end && slots[e].rid != kEmpty) ++e;
  if (e == end) {
    *this = Merge(*this, Run(), homes * 3 / 2);
    return Place(key, rid);
  }
  for (; e > i; --e) slots[e] = slots[e - 1];
  slots[i] = Slot{static_cast<decltype(Slot::key)>(key),
                  static_cast<uint32_t>(rid) + kRidBias};
  ++live;
  lo = std::min(lo, key);
  hi = std::max(hi, key);
  return true;
}

template <typename Slot>
bool PrimaryIndex::Run<Slot>::Revive(size_t i, Rid rid) {
  if (slots[i].rid != kTombstone) return false;
  slots[i].rid = static_cast<uint32_t>(rid) + kRidBias;
  --tombstones;
  ++live;
  return true;
}

template <typename Slot>
bool PrimaryIndex::Run<Slot>::Erase(Value key) {
  const size_t i = Seek(key);
  if (i == slots.size() || slots[i].rid == kTombstone) return false;
  slots[i].rid = kTombstone;
  --live;
  ++tombstones;
  return true;
}

template <typename Slot>
void PrimaryIndex::Run<Slot>::Prefetch(Value key) const {
  if (homes > 0) __builtin_prefetch(&slots[Home(Hash(key), homes)], 1);
}

template <typename Slot>
PrimaryIndex::Run<Slot> PrimaryIndex::Run<Slot>::Merge(const Run& a,
                                                       const Run& b,
                                                       size_t homes) {
  // Walk both runs in hash order; each key goes to its home slot, or
  // to the slot after the previous key when that is further. Empty
  // slots (hash order 0) and tombstones take the same path but leave a
  // zeroed slot that the next key may take, so the pass never
  // branches on them.
  Run out;
  out.homes = homes;
  out.live = a.live + b.live;
  out.lo = std::min(a.lo, b.lo);
  out.hi = std::max(a.hi, b.hi);
  auto build = [&](std::vector<Slot>& to) {
    const size_t size = to.size();
    size_t pos = 0;
    auto put = [&](uint64_t order, Slot s) {
      const size_t p = std::max(pos, Home(order << 32, homes));
      if (p >= size) return false;
      const bool keep = s.rid >= kRidBias;
      s.key &= decltype(s.key){0} - keep;
      s.rid &= uint32_t{0} - keep;
      to[p] = s;
      pos = p + keep;
      return true;
    };
    const Slot* bs = b.slots.data();
    const Slot* bend = bs + b.slots.size();
    for (const Slot& s : a.slots) {
      const uint64_t order = Hash(s.key) >> 32;
      for (; bs != bend && Hash(bs->key) >> 32 < order; ++bs) {
        if (!put(Hash(bs->key) >> 32, *bs)) return false;
      }
      if (!put(order, s)) return false;
    }
    for (; bs != bend; ++bs) {
      if (!put(Hash(bs->key) >> 32, *bs)) return false;
    }
    return true;
  };
  for (size_t tail = Tail(homes);; tail *= 2) {
    out.slots = std::vector<Slot>(homes + tail);
    if (build(out.slots)) return out;
  }
}

template <typename Slot>
Rid PrimaryIndex::Stages<Slot>::Find(Value key) const {
  for (const Run<Slot>* r : {&run, &fresh}) {
    const size_t i = r->Seek(key);
    if (i == r->slots.size()) continue;
    const uint32_t rid = r->slots[i].rid;
    return rid == kTombstone ? kInvalidRid : rid - kRidBias;
  }
  return kInvalidRid;
}

template <typename Slot>
void PrimaryIndex::Stages<Slot>::Reserve(size_t extra) {
  auto threshold = [&] { return std::max(kMinMerge, run.live / kMergeDiv); };
  if (fresh.live + run.tombstones + extra > threshold()) {
    const size_t live = run.live + fresh.live;
    run = Run<Slot>::Merge(run, fresh, live + live / kRunSlackDiv);
    fresh = Run<Slot>();
  }
  // Keep the fresh run at most 0.9 full, growing x1.5 at a time
  // (dropping its tombstones). It starts two steps below the size
  // that holds the merge threshold.
  auto fits = [](size_t keys, size_t homes) { return keys * 10 <= homes * 9; };
  if (fits(fresh.live + fresh.tombstones + extra, fresh.homes)) return;
  size_t homes = fresh.homes > 0 ? fresh.homes * 3 / 2
                                 : threshold() * 10 / 9 * 4 / 9;
  homes = std::max(kMinCapacity, homes);
  while (!fits(fresh.live + extra, homes)) homes = homes * 3 / 2;
  fresh = Run<Slot>::Merge(fresh, Run<Slot>(), homes);
}

template <typename Slot>
bool PrimaryIndex::Stages<Slot>::Place(Value key, Rid rid) {
  if (rid > kMaxRid) return false;
  const size_t i = run.Seek(key);
  return i == run.slots.size() ? fresh.Place(key, rid) : run.Revive(i, rid);
}

template <typename Slot>
bool PrimaryIndex::Stages<Slot>::Erase(Value key) {
  return run.Erase(key) || fresh.Erase(key);
}

template <typename Slot>
void PrimaryIndex::Stages<Slot>::Prefetch(Value key) const {
  if (key >= run.lo && key <= run.hi) run.Prefetch(key);
  fresh.Prefetch(key);
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
    n += s.narrow.live() + s.wide.live();
  }
  return n;
}

size_t PrimaryIndex::byte_size() const {
  size_t bytes = shards_.size() * sizeof(Shard);
  for (const auto& s : shards_) {
    SpinGuard g(s.latch);
    bytes += s.narrow.bytes() + s.wide.bytes();
  }
  return bytes;
}

}  // namespace lstore
