// Concurrent primary-key index: key → base RID.
//
// Section 2.2: "all indexes only reference base records (base RIDs)",
// which eliminates index maintenance on updates — the index is touched
// only by inserts and (deferred) deletes.
//
// A base RID is a dense row number handed out in insert order, so a
// table loaded in key order maps its keys to RIDs by one exact line:
// rid = rid0 + (key − key0)/stride. The index keeps such keys as line
// entries {key0, stride, rid0, count} in a sorted directory, read
// without a latch (an error-0 piecewise-linear segment, the simplest
// learned index: Kraska et al., SIGMOD 2018; FITing-Tree, SIGMOD 2019).
// InsertBatch makes an entry of any kMinLine or more consecutive batch
// positions on one line, and extends an entry with a batch or a single
// Insert that continues it; Erase trims or splits one. A key is live
// in one entry or in the shards, never in both.
//
// Every other key goes to 64 shards with per-shard spin latches; a
// point lookup takes one latch acquire. A RID is stored in 32 bits,
// and the key picks the slot: 8-byte {key, rid} slots for keys below
// 2^32, 12-byte slots for every other key — frame of reference with
// exceptions, as in PFOR (Zukowski et al., ICDE 2006).
//
// Like L-Store's own write- and read-optimized stages, each shard
// keeps a width's keys in two stages (Hybrid Index, Zhang et al.,
// SIGMOD 2016): a small fresh run that takes new keys, at most 0.9
// full, and a static run 0.95 full that only merges rebuild. Both
// hold their keys in hash order, so a merge is one sequential pass
// over two ordered runs, and the static run costs 8.4 bytes per key
// (12.6 when wide). Keys off any line take 8.7-9.3 bytes per key from
// 2^18 keys up (13.1-13.8 when wide); keys on a line take 32 bytes per
// entry.

#ifndef LSTORE_INDEX_PRIMARY_INDEX_H_
#define LSTORE_INDEX_PRIMARY_INDEX_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/latch.h"
#include "common/types.h"

namespace lstore {

class PrimaryIndex {
 public:
  /// The largest RID a slot holds: a slot stores the RID plus two,
  /// keeping 0 and 1 for empty and erased slots. Tables bound their
  /// range directories so that no row gets a larger one.
  static constexpr Rid kMaxRid = (Rid{1} << 32) - 3;

  /// The bytes of one line entry.
  static constexpr size_t kLineBytes = 32;
  /// The fewest consecutive batch positions on one line that start a
  /// line entry. A batch publishes an entry in sorted place, moving the
  /// entries after it; so lines of fewer keys stay in the shards, and
  /// the directory gains an entry only per kMinLine keys inserted or
  /// per split.
  static constexpr size_t kMinLine = 64;

  explicit PrimaryIndex(size_t num_shards = 64);

  /// Insert; fails (returns false) if the key already exists —
  /// enforces primary-key uniqueness — or if `rid` is past kMaxRid.
  /// The next (key, RID) of a line entry extends it.
  bool Insert(Value key, Rid rid);

  /// Batched insert: ok[i] = Insert(keys[i], rids[i]), in batch order,
  /// so a key repeated within the batch is kept at its first
  /// occurrence. kMinLine or more consecutive positions whose keys and
  /// RIDs lie on one line become a line entry, as does a first run of
  /// positions that continues one. For the other keys each touched
  /// shard is latched once, makes room for its share once per slot
  /// width (merging first when the share passes the merge threshold),
  /// and prefetches both stages' slots a few keys ahead of the probes.
  void InsertBatch(const Value* keys, const Rid* rids, size_t n, bool* ok);

  /// Point lookup. Returns kInvalidRid if absent. A key on a line
  /// takes no shard latch.
  Rid Get(Value key) const;

  /// Batched lookup: out[i] = RID of keys[i] (kInvalidRid if absent).
  /// Keys off every line are grouped by shard so each shard latch is
  /// taken once per batch instead of once per key (the MultiRead
  /// hot-path win).
  void MultiGet(const Value* keys, size_t n, Rid* out) const;

  /// Remove the key (used when an insert aborts or after a delete
  /// falls out of every snapshot).
  bool Erase(Value key);

  size_t size() const;

  /// Bytes the shards, their slot arrays and the line directory occupy.
  size_t byte_size() const;

 private:
  /// A slot stores its RID plus kRidBias, so that a zeroed slot is
  /// empty and every 64-bit key stays valid: 0 marks an empty slot and
  /// 1 an erased key.
  static constexpr uint32_t kEmpty = 0;
  static constexpr uint32_t kTombstone = 1;
  static constexpr uint32_t kRidBias = 2;
  static_assert(kMaxRid + kRidBias == ~uint32_t{0});

  /// The slot of a key below 2^32: aligned, so none straddles a cache
  /// line.
  struct NarrowSlot {
    uint32_t key;
    uint32_t rid;
  };
  static_assert(sizeof(NarrowSlot) == 8);

  /// The slot of every other key, packed to alignment 4 so it takes 12
  /// bytes instead of 16. Members are only read and written by value:
  /// a pointer or reference to `key` could be misaligned.
#pragma pack(push, 4)
  struct WideSlot {
    Value key;
    uint32_t rid;
  };
#pragma pack(pop)
  static_assert(sizeof(WideSlot) == 12 && alignof(WideSlot) == 4);

  static bool IsNarrow(Value key) { return key >> 32 == 0; }

  /// Keys in hash order (Robin Hood order, Celis 1986): each key at or
  /// after its home slot among `homes`, and none after a key of larger
  /// hash. Empty slots are zeroed. A probe walks from the key's home
  /// and stops at an empty slot or a larger hash, so a miss reads about
  /// as far as a hit. Erase keeps the key beside a tombstone, so the
  /// order holds and re-inserting the key takes the slot back.
  template <typename Slot>
  struct Run {
    std::vector<Slot> slots;  // `homes` slots, then a tail
    size_t homes = 0;
    /// Bounds of every key the run has held: a probe for a key outside
    /// them reads no slot, so a load of ascending keys never probes the
    /// static run.
    Value lo = ~Value{0};
    Value hi = 0;
    size_t live = 0;
    size_t tombstones = 0;

    /// The key's slot, live or erased; slots.size() if it has none.
    size_t Seek(Value key) const;
    /// Give the erased key in slot `i` the RID; false if it is live.
    bool Revive(size_t i, Rid rid);
    /// Insert a key no other run holds: false if this one holds it
    /// live. A new key moves the keys between its place and the next
    /// empty slot one slot on (the run grows when none is left).
    bool Place(Value key, Rid rid);
    /// Erase a live key; false if absent.
    bool Erase(Value key);
    /// Touch the key's home slot ahead of a probe.
    void Prefetch(Value key) const;
    /// The live keys of `a` and `b`, which share none, in one pass into
    /// a new run with `homes` home slots.
    static Run Merge(const Run& a, const Run& b, size_t homes);
  };

  /// One slot width of a shard: a static run, built by merges only,
  /// and a fresh run that takes new keys, kept at most 0.9 full. Once
  /// the fresh run's live keys plus the static run's tombstones pass a
  /// quarter of the static run's live keys, both merge into a new
  /// static run 0.95 full. A key is live in at most one run, and a key
  /// erased from a run returns to it.
  template <typename Slot>
  struct Stages {
    Run<Slot> run;
    Run<Slot> fresh;

    Rid Find(Value key) const;
    /// Make room for `extra` more keys, merging first when they would
    /// pass the merge threshold.
    void Reserve(size_t extra);
    /// Insert after a Reserve; false if the key is present in either
    /// run or `rid` is past kMaxRid.
    bool Place(Value key, Rid rid);
    bool Erase(Value key);
    void Prefetch(Value key) const;
    /// Whether a run has held a key in [first, last].
    bool Spans(Value first, Value last) const {
      return (run.lo <= last && first <= run.hi) ||
             (fresh.lo <= last && first <= fresh.hi);
    }
    size_t live() const { return run.live + fresh.live; }
    size_t bytes() const {
      return (run.slots.capacity() + fresh.slots.capacity()) * sizeof(Slot);
    }
  };

  /// Keys key0 + i·stride for i < count, mapping to RIDs rid0 + i.
  struct Line {
    Value key0 = 0;
    Value stride = 1;  // ≥ 1
    Rid rid0 = 0;
    uint64_t count = 0;  // ≥ 1

    Value last() const { return key0 + (count - 1) * stride; }
    /// The key's position on the line; count if it is not on it.
    uint64_t IndexOf(Value key) const {
      if (key < key0) return count;
      const Value d = key - key0;
      const Value i = stride == 1 ? d : d / stride;
      return i < count && i * stride == d ? i : count;
    }
    /// Whether (key, rid) is the line's next point.
    bool Continues(Value key, Rid rid) const {
      const Value d = key - key0;
      return key > last() && d % stride == 0 && d / stride == count &&
             rid == rid0 + count;
    }
  };

  /// The line entries in key order, their key intervals disjoint.
  /// Readers take no latch: a sequence count (a seqlock) is odd while
  /// a writer changes entries, and a reader retries when the count
  /// moved, so no reader sees a half-moved entry and a key never
  /// vanishes while an entry is extended, trimmed or split. Readers
  /// write nothing. Writers hold `writer`, taken before any shard
  /// latch. An array outgrown is kept until the index is destroyed,
  /// since a reader may still be searching it; arrays double, so the
  /// kept ones take less than the current one.
  class LineDirectory {
   public:
    bool empty() const { return size_.load(std::memory_order_acquire) == 0; }
    /// The key's RID if it is live on a line, else kInvalidRid.
    Rid Find(Value key) const;
    /// Whether (key, rid) continues an entry (a hint: no latch).
    bool Continued(Value key, Rid rid) const;
    /// Take the key off its entry, trimming or splitting it; false if
    /// no entry holds it.
    bool Erase(Value key);

    /// The rest is for writers, holding `writer`.
    mutable SpinLatch writer;
    size_t size() const { return size_.load(std::memory_order_relaxed); }
    Line At(size_t i) const;
    /// The last entry whose key0 ≤ key; size() if none.
    size_t Locate(Value key) const;
    /// Replace entries [at, at + remove) with lines[0, add), in one
    /// write: readers see all of it or none.
    void Splice(size_t at, size_t remove, const Line* lines, size_t add);
    uint64_t keys() const;
    size_t bytes() const { return bytes_; }

   private:
    /// A Line as words that readers load while a writer stores them.
    struct Entry {
      std::atomic<uint64_t> w[4];
    };
    static_assert(sizeof(Entry) == kLineBytes);
    static Line Load(const Entry& e);
    static void Store(Entry& e, const Line& line);
    /// The last entry whose key0 ≤ key, read whole; false if none.
    bool Floor(Value key, Line* line) const;

    std::atomic<uint64_t> seq_{0};
    std::atomic<size_t> size_{0};
    std::atomic<Entry*> entries_{nullptr};
    size_t capacity_ = 0;
    size_t bytes_ = 0;
    std::vector<std::unique_ptr<Entry[]>> arrays_;  // the last is current
  };

  /// Line-aligned, so a probe finds the latch and all that a narrow
  /// static run's probe reads of it in the shard's first cache line.
  struct alignas(64) Shard {
    mutable SpinLatch latch;
    Stages<NarrowSlot> narrow;  // keys below 2^32
    Stages<WideSlot> wide;      // every other key
  };

  /// Publish the `n` keys from `keys`, on a line of `stride` from RID
  /// `rid0`, as an entry or an entry's extension; false, changing
  /// nothing, when they are too few for a new entry, overlap an entry,
  /// pass kMaxRid or one is live in a shard. Holds the latch of every
  /// shard they hash to from that check through the publish.
  bool PublishLine(const Value* keys, Rid rid0, size_t n, Value stride);
  /// InsertBatch into the shards only, and their lookups.
  void InsertRuns(const Value* keys, const Rid* rids, size_t n, bool* ok);
  void GetRuns(const Value* keys, size_t n, Rid* out) const;
  /// The key's RID in its shard `s`, whose latch the caller holds.
  static Rid FindIn(const Shard& s, Value key) {
    return IsNarrow(key) ? s.narrow.Find(key) : s.wide.Find(key);
  }

  /// Visit the batch shard by shard: fn(shard, positions, count) gets
  /// the positions of keys[] that hash to `shard`, in batch order.
  template <typename Fn>
  void ForEachShardGroup(const Value* keys, size_t n, Fn&& fn) const;

  static uint64_t Hash(Value key) {
    // Fibonacci hashing spreads sequential keys.
    return key * 0x9e3779b97f4a7c15ull;
  }
  size_t ShardOf(Value key) const {
    return (Hash(key) >> 32) % shards_.size();
  }
  LineDirectory lines_;
  mutable std::vector<Shard> shards_;
};

}  // namespace lstore

#endif  // LSTORE_INDEX_PRIMARY_INDEX_H_
