// Concurrent primary-key index: key → base RID.
//
// Section 2.2: "all indexes only reference base records (base RIDs)",
// which eliminates index maintenance on updates — the index is touched
// only by inserts and (deferred) deletes. 64 shards with per-shard
// spin latches; point lookups take one latch acquire. Each shard is a
// flat linear-probing table of 16-byte {key, rid} slots (~20-24 bytes
// per key at its 0.53-0.8 load).

#ifndef LSTORE_INDEX_PRIMARY_INDEX_H_
#define LSTORE_INDEX_PRIMARY_INDEX_H_

#include <cstdint>
#include <vector>

#include "common/latch.h"
#include "common/types.h"

namespace lstore {

class PrimaryIndex {
 public:
  explicit PrimaryIndex(size_t num_shards = 64);

  /// Insert; fails (returns false) if the key already exists —
  /// enforces primary-key uniqueness.
  bool Insert(Value key, Rid rid);

  /// Batched insert: ok[i] = Insert(keys[i], rids[i]), where a key
  /// repeated within the batch is kept at its first occurrence. Each
  /// touched shard is latched once and grown at most once, and its
  /// slots are prefetched a few keys ahead of the probes.
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
  /// Empty and tombstone slots are marked in `rid` — base RIDs never
  /// reach the top of the RID space — so every 64-bit key stays valid.
  static constexpr Rid kEmpty = kInvalidRid;
  static constexpr Rid kTombstone = kInvalidRid - 1;

  struct Slot {
    Value key;
    Rid rid;
  };

  /// One shard's linear-probing table. Once live plus tombstone slots
  /// would pass 0.8 of capacity it rehashes: at the same capacity when
  /// dropping the tombstones leaves it at most half full, else x1.5
  /// (repeatedly, until a batch's share fits).
  struct Shard {
    mutable SpinLatch latch;
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
