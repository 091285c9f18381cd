// Concurrent primary-key index: key → base RID.
//
// Section 2.2: "all indexes only reference base records (base RIDs)",
// which eliminates index maintenance on updates — the index is touched
// only by inserts and (deferred) deletes. 64 shards with per-shard
// spin latches; point lookups take one latch acquire. A base RID is a
// dense row number, so it is stored in 32 bits, and the key picks the
// slot: 8-byte {key, rid} slots for keys below 2^32, 12-byte slots for
// every other key — frame of reference with exceptions, as in PFOR
// (Zukowski et al., ICDE 2006).
//
// Like L-Store's own write- and read-optimized stages, each shard
// keeps a width's keys in two stages (Hybrid Index, Zhang et al.,
// SIGMOD 2016): a small fresh run that takes new keys, at most 0.9
// full, and a static run 0.95 full that only merges rebuild. Both
// hold their keys in hash order, so a merge is one sequential pass
// over two ordered runs, and the static run costs 8.4 bytes per key
// (12.6 when wide). A loaded index takes 8.7-9.3 bytes per key from
// 2^18 keys up (13.1-13.8 when wide).

#ifndef LSTORE_INDEX_PRIMARY_INDEX_H_
#define LSTORE_INDEX_PRIMARY_INDEX_H_

#include <cstdint>
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

  explicit PrimaryIndex(size_t num_shards = 64);

  /// Insert; fails (returns false) if the key already exists —
  /// enforces primary-key uniqueness — or if `rid` is past kMaxRid.
  bool Insert(Value key, Rid rid);

  /// Batched insert: ok[i] = Insert(keys[i], rids[i]), where a key
  /// repeated within the batch is kept at its first occurrence. Each
  /// touched shard is latched once, makes room for its share once per
  /// slot width (merging first when the share passes the merge
  /// threshold), and prefetches both stages' slots a few keys ahead of
  /// the probes.
  void InsertBatch(const Value* keys, const Rid* rids, size_t n, bool* ok);

  /// Point lookup. Returns kInvalidRid if absent.
  Rid Get(Value key) const;

  /// Batched lookup: out[i] = RID of keys[i] (kInvalidRid if absent).
  /// Groups probes by shard so each shard latch is taken once per
  /// batch instead of once per key (the MultiRead hot-path win).
  void MultiGet(const Value* keys, size_t n, Rid* out) const;

  /// Remove the key (used when an insert aborts or after a delete
  /// falls out of every snapshot).
  bool Erase(Value key);

  size_t size() const;

  /// Bytes the shards and their slot arrays occupy.
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
    size_t live() const { return run.live + fresh.live; }
    size_t bytes() const {
      return (run.slots.capacity() + fresh.slots.capacity()) * sizeof(Slot);
    }
  };

  /// Line-aligned, so a probe finds the latch and all that a narrow
  /// static run's probe reads of it in the shard's first cache line.
  struct alignas(64) Shard {
    mutable SpinLatch latch;
    Stages<NarrowSlot> narrow;  // keys below 2^32
    Stages<WideSlot> wide;      // every other key
  };

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
  mutable std::vector<Shard> shards_;
};

}  // namespace lstore

#endif  // LSTORE_INDEX_PRIMARY_INDEX_H_
