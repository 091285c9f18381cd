// Concurrent primary-key index: key → base RID.
//
// Section 2.2: "all indexes only reference base records (base RIDs)",
// which eliminates index maintenance on updates — the index is touched
// only by inserts and (deferred) deletes. 64 shards with per-shard
// spin latches; point lookups take one latch acquire. A base RID is a
// dense row number, so it is stored in 32 bits. Each shard holds two
// flat linear-probing tables under its latch, and the key alone picks
// one: 8-byte {key, rid} slots for keys below 2^32 (10-15 bytes per
// key at the 0.53-0.8 load) and 12-byte slots for every other key
// (15-23 bytes per key) — frame of reference with exceptions, as in
// PFOR (Zukowski et al., ICDE 2006).

#ifndef LSTORE_INDEX_PRIMARY_INDEX_H_
#define LSTORE_INDEX_PRIMARY_INDEX_H_

#include <cstdint>
#include <vector>

#include "common/latch.h"
#include "common/types.h"

namespace lstore {

class PrimaryIndex {
 public:
  /// The largest RID a slot holds; the two values above it mark empty
  /// and erased slots. Tables bound their range directories so that
  /// no row gets a larger one.
  static constexpr Rid kMaxRid = (Rid{1} << 32) - 3;

  explicit PrimaryIndex(size_t num_shards = 64);

  /// Insert; fails (returns false) if the key already exists —
  /// enforces primary-key uniqueness — or if `rid` is past kMaxRid.
  bool Insert(Value key, Rid rid);

  /// Batched insert: ok[i] = Insert(keys[i], rids[i]), where a key
  /// repeated within the batch is kept at its first occurrence. Each
  /// touched shard is latched once and each of its tables grown at
  /// most once, and slots are prefetched a few keys ahead of the
  /// probes.
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
  /// Empty and tombstone slots are marked in `rid` — base RIDs stop at
  /// kMaxRid — so every 64-bit key stays valid.
  static constexpr uint32_t kEmpty = ~uint32_t{0};
  static constexpr uint32_t kTombstone = kEmpty - 1;
  static_assert(kMaxRid + 1 == kTombstone);

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

  /// One linear-probing table. Once live plus tombstone slots would
  /// pass 0.8 of capacity it rehashes: at the same capacity when
  /// dropping the tombstones leaves it at most half full, else x1.5
  /// (repeatedly, until a batch's share fits).
  template <typename Slot>
  struct SlotTable {
    std::vector<Slot> slots;
    size_t live = 0;
    size_t tombstones = 0;

    Rid Find(Value key) const;
    /// Make room for `extra` more keys, so that many Place calls keep
    /// an empty slot to end every probe.
    void Reserve(size_t extra);
    /// Insert without growing; false if the key is present.
    bool Place(Value key, Rid rid);
    bool Erase(Value key);
    void Rehash(size_t capacity);
    /// Touch the key's home slot ahead of a Place (needs a capacity).
    void Prefetch(Value key) const;
  };

  /// Line-aligned, so a probe finds the latch and either table's slot
  /// array in one cache line.
  struct alignas(64) Shard {
    mutable SpinLatch latch;
    SlotTable<NarrowSlot> narrow;  // keys below 2^32
    SlotTable<WideSlot> wide;      // every other key
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
