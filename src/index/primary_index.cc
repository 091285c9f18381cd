#include "index/primary_index.h"

#include <algorithm>
#include <thread>
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

// --- line directory -------------------------------------------------------

namespace {

/// Entries of `a[0, n)` whose key0 is at most `key` (they come first).
template <typename Entry>
size_t Rank(const Entry* a, size_t n, Value key) {
  size_t lo = 0, hi = n;
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    if (a[mid].w[0].load(std::memory_order_acquire) <= key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace

PrimaryIndex::Line PrimaryIndex::LineDirectory::Load(const Entry& e) {
  return Line{e.w[0].load(std::memory_order_acquire),
              e.w[1].load(std::memory_order_acquire),
              e.w[2].load(std::memory_order_acquire),
              e.w[3].load(std::memory_order_acquire)};
}

void PrimaryIndex::LineDirectory::Store(Entry& e, const Line& line) {
  // Release stores: a reader that loads one of them also sees the odd
  // sequence count stored before it, and retries.
  e.w[0].store(line.key0, std::memory_order_release);
  e.w[1].store(line.stride, std::memory_order_release);
  e.w[2].store(line.rid0, std::memory_order_release);
  e.w[3].store(line.count, std::memory_order_release);
}

bool PrimaryIndex::LineDirectory::Floor(Value key, Line* line) const {
  for (;;) {
    const uint64_t seq = seq_.load(std::memory_order_acquire);
    if ((seq & 1) == 0) {
      // The size before the array: an array loaded after a size holds
      // at least that many entries.
      const size_t n = size_.load(std::memory_order_acquire);
      const Entry* a = entries_.load(std::memory_order_acquire);
      const size_t rank = Rank(a, n, key);
      if (rank > 0) *line = Load(a[rank - 1]);
      // The loads above are acquires, so this one is not hoisted
      // before them.
      if (seq_.load(std::memory_order_relaxed) == seq) return rank > 0;
    }
    std::this_thread::yield();
  }
}

Rid PrimaryIndex::LineDirectory::Find(Value key) const {
  Line line;
  if (empty() || !Floor(key, &line)) return kInvalidRid;
  const uint64_t i = line.IndexOf(key);
  return i < line.count ? line.rid0 + i : kInvalidRid;
}

bool PrimaryIndex::LineDirectory::Continued(Value key, Rid rid) const {
  Line line;
  return !empty() && Floor(key, &line) && line.Continues(key, rid);
}

size_t PrimaryIndex::LineDirectory::Locate(Value key) const {
  const size_t n = size();
  const size_t rank = Rank(entries_.load(std::memory_order_relaxed), n, key);
  return rank > 0 ? rank - 1 : n;
}

PrimaryIndex::Line PrimaryIndex::LineDirectory::At(size_t i) const {
  return Load(entries_.load(std::memory_order_relaxed)[i]);
}

void PrimaryIndex::LineDirectory::Splice(size_t at, size_t remove,
                                         const Line* lines, size_t add) {
  const size_t n = size();
  const size_t m = n - remove + add;
  if (m > capacity_) {
    // Readers may be searching the old array: it stays, and so do its
    // entries, so they need no retry.
    size_t capacity = std::max<size_t>(1, capacity_ * 2);
    while (capacity < m) capacity *= 2;
    auto grown = std::make_unique<Entry[]>(capacity);
    for (size_t i = 0; i < n; ++i) Store(grown[i], At(i));
    entries_.store(grown.get(), std::memory_order_release);
    arrays_.push_back(std::move(grown));
    capacity_ = capacity;
    bytes_ += capacity * sizeof(Entry);
  }
  Entry* a = entries_.load(std::memory_order_relaxed);
  const uint64_t seq = seq_.load(std::memory_order_relaxed);
  seq_.store(seq + 1, std::memory_order_relaxed);
  // Move the entries after the replaced ones, away from the side they
  // move to first.
  const size_t tail = at + remove;
  if (add > remove) {
    for (size_t j = n; j-- > tail;) Store(a[j + add - remove], Load(a[j]));
  } else {
    for (size_t j = tail; j < n; ++j) Store(a[j + add - remove], Load(a[j]));
  }
  for (size_t i = 0; i < add; ++i) Store(a[at + i], lines[i]);
  size_.store(m, std::memory_order_release);
  seq_.store(seq + 2, std::memory_order_release);
}

bool PrimaryIndex::LineDirectory::Erase(Value key) {
  SpinGuard w(writer);
  const size_t at = Locate(key);
  if (at == size()) return false;
  const Line line = At(at);
  const uint64_t i = line.IndexOf(key);
  if (i == line.count) return false;
  // The keys before the erased one and the keys after it.
  Line parts[2];
  size_t k = 0;
  if (i > 0) parts[k++] = Line{line.key0, line.stride, line.rid0, i};
  if (i + 1 < line.count) {
    parts[k++] = Line{key + line.stride, line.stride, line.rid0 + i + 1,
                      line.count - i - 1};
  }
  Splice(at, 1, parts, k);
  return true;
}

uint64_t PrimaryIndex::LineDirectory::keys() const {
  uint64_t n = 0;
  for (size_t i = 0; i < size(); ++i) n += At(i).count;
  return n;
}

// --- index -----------------------------------------------------------------

bool PrimaryIndex::PublishLine(const Value* keys, Rid rid0, size_t n,
                               Value stride) {
  if (rid0 > kMaxRid || n - 1 > kMaxRid - rid0) return false;
  const Value first = keys[0], last = keys[n - 1];
  SpinGuard w(lines_.writer);
  const size_t size = lines_.size();
  const size_t at = lines_.Locate(first);
  Line line{first, stride, rid0, n};
  bool extend = false;
  if (at != size) {
    const Line prev = lines_.At(at);
    extend = prev.Continues(first, rid0) && (n == 1 || stride == prev.stride);
    if (extend) {
      line = prev;
      line.count += n;
    } else if (prev.last() >= first) {
      return false;
    }
  }
  if (!extend && n < kMinLine) return false;
  const size_t next = at == size ? 0 : at + 1;
  if (next < size && lines_.At(next).key0 <= last) return false;

  // Hold the latch of every shard the keys hash to (every shard, for a
  // line of as many keys) from the probe through the publish, so no
  // insert into a shard slips a key in between.
  const size_t nshards = shards_.size();
  InlineBuffer<bool, 64> held(nshards);
  std::fill(held.data(), held.data() + nshards, n >= nshards);
  if (n < nshards) {
    for (size_t i = 0; i < n; ++i) held[ShardOf(keys[i])] = true;
  }
  bool probe = false;
  for (size_t s = 0; s < nshards; ++s) {
    if (!held[s]) continue;
    shards_[s].latch.Lock();
    probe |= shards_[s].narrow.Spans(first, last) ||
             shards_[s].wide.Spans(first, last);
  }
  // A shard whose runs never held a key between the line's ends holds
  // none of its keys: an ascending load probes no slot.
  bool clear = true;
  for (size_t i = 0; probe && clear && i < n; ++i) {
    clear = FindIn(shards_[ShardOf(keys[i])], keys[i]) == kInvalidRid;
  }
  if (clear) lines_.Splice(extend ? at : next, extend ? 1 : 0, &line, 1);
  for (size_t s = 0; s < nshards; ++s) {
    if (held[s]) shards_[s].latch.Unlock();
  }
  return clear;
}

bool PrimaryIndex::Insert(Value key, Rid rid) {
  if (lines_.Continued(key, rid) && PublishLine(&key, rid, 1, 1)) return true;
  Shard& s = shards_[ShardOf(key)];
  SpinGuard g(s.latch);
  if (lines_.Find(key) != kInvalidRid) return false;
  if (IsNarrow(key)) {
    s.narrow.Reserve(1);
    return s.narrow.Place(key, rid);
  }
  s.wide.Reserve(1);
  return s.wide.Place(key, rid);
}

namespace {

/// The first position from `i` whose key and RID do not follow the
/// previous position's on a line of `stride`.
size_t LineEnd(const Value* keys, const Rid* rids, size_t i, size_t n,
               Value stride) {
  while (i < n && keys[i] > keys[i - 1] && keys[i] - keys[i - 1] == stride &&
         rids[i] == rids[i - 1] + 1) {
    ++i;
  }
  return i;
}

}  // namespace

void PrimaryIndex::InsertBatch(const Value* keys, const Rid* rids, size_t n,
                               bool* ok) {
  // Cut the batch, in order, into lines and the positions between
  // them. Each piece is inserted before the next, so a repeated key
  // keeps its first occurrence.
  size_t done = 0;  // positions inserted
  auto line = [&](size_t begin, size_t end, Value stride) {
    InsertRuns(keys + done, rids + done, begin - done, ok + done);
    done = begin;
    if (PublishLine(keys + begin, rids[begin], end - begin, stride)) {
      std::fill(ok + begin, ok + end, true);
      done = end;
    }
  };
  if (n > 0 && lines_.Continued(keys[0], rids[0])) {
    const Value stride = n > 1 ? keys[1] - keys[0] : 1;
    line(0, LineEnd(keys, rids, 1, n, stride), stride);
  }
  // `len` positions up to i lie on a line of `stride`. The scan does
  // not branch on the keys until a line reaches kMinLine positions.
  size_t len = 1;
  Value stride = 0;
  for (size_t i = done + 1; i < n; ++i) {
    const Value d = keys[i] - keys[i - 1];
    const bool step = (keys[i] > keys[i - 1]) & (rids[i] == rids[i - 1] + 1);
    len = step ? (d == stride ? len + 1 : 2) : 1;
    stride = d;
    if (len == kMinLine) {
      const size_t end = LineEnd(keys, rids, i + 1, n, stride);
      line(i + 1 - kMinLine, end, stride);
      i = end;
      len = 1;
    }
  }
  InsertRuns(keys + done, rids + done, n - done, ok + done);
}

void PrimaryIndex::InsertRuns(const Value* keys, const Rid* rids, size_t n,
                              bool* ok) {
  if (n == 0) return;
  // Home slots are random cache misses in a large index: touch each
  // one this many keys ahead of its probe.
  constexpr size_t kPrefetchAhead = 8;
  ForEachShardGroup(keys, n, [&](Shard& s, const uint32_t* pos,
                                 size_t count) {
    SpinGuard g(s.latch);
    // A line publish holds the latch of every shard its keys hash to,
    // so an empty directory seen under this one holds none of them.
    const bool lines = !lines_.empty();
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
      if (lines && lines_.Find(key) != kInvalidRid) {
        ok[pos[j]] = false;
        continue;
      }
      ok[pos[j]] = IsNarrow(key) ? s.narrow.Place(key, rids[pos[j]])
                                 : s.wide.Place(key, rids[pos[j]]);
    }
  });
}

Rid PrimaryIndex::Get(Value key) const {
  // An empty directory costs a random-key lookup one load, no call.
  if (!lines_.empty()) {
    const Rid rid = lines_.Find(key);
    if (rid != kInvalidRid) return rid;
  }
  const Shard& s = shards_[ShardOf(key)];
  SpinGuard g(s.latch);
  return FindIn(s, key);
}

void PrimaryIndex::MultiGet(const Value* keys, size_t n, Rid* out) const {
  if (n == 1) {
    out[0] = Get(keys[0]);
    return;
  }
  if (lines_.empty()) {
    GetRuns(keys, n, out);
    return;
  }
  // Keys on a line resolve without a latch; the rest go to the shards.
  InlineBuffer<Value> rest(n);
  InlineBuffer<uint32_t> at(n);
  size_t m = 0;
  for (size_t i = 0; i < n; ++i) {
    out[i] = lines_.Find(keys[i]);
    if (out[i] != kInvalidRid) continue;
    rest[m] = keys[i];
    at[m++] = static_cast<uint32_t>(i);
  }
  if (m == 0) return;
  InlineBuffer<Rid> found(m);
  GetRuns(rest.data(), m, found.data());
  for (size_t k = 0; k < m; ++k) out[at[k]] = found[k];
}

void PrimaryIndex::GetRuns(const Value* keys, size_t n, Rid* out) const {
  ForEachShardGroup(keys, n, [&](const Shard& s, const uint32_t* pos,
                                 size_t count) {
    SpinGuard g(s.latch);
    for (size_t j = 0; j < count; ++j) {
      out[pos[j]] = FindIn(s, keys[pos[j]]);
    }
  });
}

bool PrimaryIndex::Erase(Value key) {
  if (lines_.Find(key) != kInvalidRid && lines_.Erase(key)) return true;
  Shard& s = shards_[ShardOf(key)];
  SpinGuard g(s.latch);
  return IsNarrow(key) ? s.narrow.Erase(key) : s.wide.Erase(key);
}

size_t PrimaryIndex::size() const {
  size_t n = 0;
  {
    SpinGuard w(lines_.writer);
    n += lines_.keys();
  }
  for (const auto& s : shards_) {
    SpinGuard g(s.latch);
    n += s.narrow.live() + s.wide.live();
  }
  return n;
}

size_t PrimaryIndex::byte_size() const {
  size_t bytes = shards_.size() * sizeof(Shard);
  {
    SpinGuard w(lines_.writer);
    bytes += lines_.bytes();
  }
  for (const auto& s : shards_) {
    SpinGuard g(s.latch);
    bytes += s.narrow.bytes() + s.wide.bytes();
  }
  return bytes;
}

}  // namespace lstore
