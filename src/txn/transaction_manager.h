// Transaction manager: issues begin/commit timestamps from the
// synchronized logical clock and tracks per-transaction state in a
// hashtable (Section 5.1.1: "The transaction manager also maintains
// the state of each transaction and its begin/commit time in a
// hashtable").
//
// It is also the one home of the Start Time protocol: a slot holds the
// writer's transaction id until this manager's state for that id
// decides the version, and the first thread to see the decision swaps
// the commit time (or the aborted stamp) in lazily. Every engine, both
// merges and checkpoint capture read the state table only through
// `Resolve`, `Visible`, `InFlightWriter` and `AwaitOutcome`.
//
// Invariant: every engine stamps its writes' Start Time slots with the
// final outcome BEFORE it calls `Retire`. The table thereby stays
// bounded, and a thread that misses an entry knows the slot already
// holds the stamped value (it re-reads it; see ResolveTxnId).

#ifndef LSTORE_TXN_TRANSACTION_MANAGER_H_
#define LSTORE_TXN_TRANSACTION_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/latch.h"
#include "common/types.h"
#include "txn/transaction.h"

namespace lstore {

/// What a Start Time slot says about its version.
enum class Outcome : uint8_t {
  kUnpublished,  ///< kNull: reserved, not written yet
  kActive,       ///< the writer is still running (or undoing)
  kPreCommit,    ///< the writer is validating its reads
  kCommitted,
  kAborted,
};

struct Resolution {
  Outcome outcome;
  /// The commit time when committed; when pre-committing, the one
  /// already assigned, or 0.
  Timestamp commit = 0;
  bool decided() const {
    return outcome == Outcome::kCommitted || outcome == Outcome::kAborted;
  }
};

/// Whether a reader sees one version.
enum class Visibility : uint8_t { kInvisible, kVisible, kVisibleSpeculative };

class TransactionManager {
 public:
  struct TxnInfo {
    std::atomic<TxnState> state{TxnState::kActive};
    Timestamp begin = 0;
    std::atomic<Timestamp> commit{0};
  };

  TransactionManager() : shards_(64) {}

  /// Begin: advance the clock, mint a transaction id (the MSB-tagged
  /// begin time — footnote 14: "the begin time could itself be used as
  /// a seed for the transaction ID").
  Transaction Begin(IsolationLevel iso = IsolationLevel::kReadCommitted);

  /// Transition active → pre-commit and assign the commit time
  /// atomically with respect to state queries.
  Timestamp EnterPreCommit(Transaction* txn);

  void MarkCommitted(Transaction* txn);
  void MarkAborted(Transaction* txn);

  /// Remove the hashtable entry once all Start Time slots are stamped.
  void Retire(TxnId id);

  /// The outcome of the version whose Start Time slot is `slot`; `*raw`
  /// is the caller's load of it. A decided writer's commit time or
  /// kAbortedStamp is CAS-stamped into the slot on the way, and `*raw`
  /// is left holding the slot's resolved contents: a commit time,
  /// kAbortedStamp, kNull, or the id of a writer still active or
  /// pre-committing. A stamped slot resolves without a lookup.
  Resolution Resolve(std::atomic<Value>* slot, Value* raw) const {
    if (*raw == kNull) return {Outcome::kUnpublished};
    if (IsAbortedStamp(*raw)) return {Outcome::kAborted};
    if (!IsTxnId(*raw)) return {Outcome::kCommitted, *raw};
    return ResolveTxnId(slot, raw);
  }

  /// Visibility of the version in `slot` (`*raw` as for Resolve) to a
  /// reader at `as_of` (strict '<'; kMaxTimestamp = latest committed).
  /// `reader`'s own writes are visible. A pre-committing writer is
  /// visible speculatively ([18]) when `speculative` and its commit
  /// time falls inside the snapshot; `*raw` then holds its id, the
  /// reader's commit dependency. Otherwise, inside a bounded snapshot,
  /// the reader waits out its validation, so two reads of one snapshot
  /// never disagree.
  Visibility Visible(std::atomic<Value>* slot, Value* raw, Timestamp as_of,
                     const Transaction* reader = nullptr,
                     bool speculative = false) const {
    if (reader != nullptr && *raw == reader->id()) return Visibility::kVisible;
    for (;;) {
      Resolution res = Resolve(slot, raw);
      if (res.outcome == Outcome::kCommitted) {
        return res.commit < as_of ? Visibility::kVisible
                                  : Visibility::kInvisible;
      }
      bool inside = res.commit == 0 || res.commit < as_of;
      if (res.outcome != Outcome::kPreCommit || !inside) {
        return Visibility::kInvisible;
      }
      if (speculative) return Visibility::kVisibleSpeculative;
      if (as_of == kMaxTimestamp) return Visibility::kInvisible;
      AwaitOutcome(*raw);
    }
  }

  /// The write-write conflict test (Section 5.1.1): whether `raw`, the
  /// Start Time of a record's latest version, names a transaction other
  /// than `writer` that is still active or pre-committing.
  bool InFlightWriter(Value raw, const Transaction* writer) const {
    return IsTxnId(raw) && raw != writer->id() && Undecided(raw);
  }

  /// Yield while `id` is pre-committing. False iff it then aborted; a
  /// retired id returns true (its outcome is in its slots).
  bool AwaitOutcome(TxnId id) const;

  /// Snapshot of a transaction's state; `found == false` means the
  /// entry was already retired (outcome is stamped in the slots).
  struct StateView {
    bool found = false;
    TxnState state = TxnState::kCommitted;
    Timestamp commit = 0;
  };
  StateView GetState(TxnId id) const;

  LogicalClock& clock() { return clock_; }
  const LogicalClock& clock() const { return clock_; }

  /// A read snapshot admitting every currently-committed transaction
  /// WITHOUT advancing the clock: visibility compares are strict '<',
  /// so now+1 covers commit times <= now. The single home of the
  /// engine-wide convention behind every engine's Now().
  Timestamp SnapshotNow() const { return clock_.Now() + 1; }

  /// Number of live entries (tests/stats).
  size_t live_entries() const;

 private:
  struct Shard {
    mutable SpinLatch latch;
    std::unordered_map<TxnId, std::unique_ptr<TxnInfo>> map;
  };
  /// Resolve's lookup: `*raw` holds a transaction id.
  Resolution ResolveTxnId(std::atomic<Value>* slot, Value* raw) const;
  bool Undecided(TxnId id) const;

  size_t ShardOf(TxnId id) const {
    return (id * 0x9e3779b97f4a7c15ull >> 32) % shards_.size();
  }

  LogicalClock clock_;
  mutable std::vector<Shard> shards_;
};

}  // namespace lstore

#endif  // LSTORE_TXN_TRANSACTION_MANAGER_H_
