// Per-transaction state for the optimistic concurrency protocol of
// Section 5.1.1 (after [33], with speculative reads after [18]).

#ifndef LSTORE_TXN_TRANSACTION_H_
#define LSTORE_TXN_TRANSACTION_H_

#include <cstdint>
#include <vector>

#include "common/types.h"

namespace lstore {

class TxnContext;

enum class IsolationLevel {
  kReadCommitted,  ///< reads latest committed; no validation
  kSnapshot,       ///< reads as of begin time; validates speculative reads
  kSerializable,   ///< validates every read at commit
};

enum class TxnState : uint8_t {
  kActive = 0,
  kPreCommit,  ///< validating reads (speculatively readable by others)
  kCommitted,
  kAborted,
};

/// One entry of the readset: which version (identified by the tail seq
/// at read time, 0 = base) of which base record was observed.
struct ReadEntry {
  uint64_t range_id;
  uint32_t base_slot;
  uint32_t observed_seq;    ///< visible version when read (0 = base record)
  bool speculative;         ///< read a pre-committed version ([18])
  TxnId dependency;         ///< writer we speculated on (0 = none)
  const TxnContext* owner = nullptr;  ///< engine that recorded the entry
};

/// One entry of the writeset: a tail record this transaction appended.
struct WriteEntry {
  uint64_t range_id;
  uint32_t base_slot;
  uint32_t seq;             ///< tail sequence of the appended version
  bool is_insert;           ///< insert into an insert range
  Value inserted_key;       ///< for index rollback on abort
  const TxnContext* owner = nullptr;  ///< engine that recorded the entry
};

class Transaction {
 public:
  Transaction(TxnId id, Timestamp begin, IsolationLevel iso)
      : id_(id), begin_time_(begin), isolation_(iso) {}

  TxnId id() const { return id_; }
  Timestamp begin_time() const { return begin_time_; }
  Timestamp commit_time() const { return commit_time_; }
  void set_commit_time(Timestamp t) { commit_time_ = t; }
  IsolationLevel isolation() const { return isolation_; }

  std::vector<ReadEntry>& readset() { return readset_; }
  std::vector<WriteEntry>& writeset() { return writeset_; }
  const std::vector<ReadEntry>& readset() const { return readset_; }
  const std::vector<WriteEntry>& writeset() const { return writeset_; }

  /// Writers this transaction speculatively read from; they must have
  /// committed before this transaction may commit.
  std::vector<TxnId>& commit_dependencies() { return commit_deps_; }

  bool finished() const { return finished_; }
  void set_finished() { finished_ = true; }

 private:
  TxnId id_;
  Timestamp begin_time_;
  Timestamp commit_time_ = 0;
  IsolationLevel isolation_;
  std::vector<ReadEntry> readset_;
  std::vector<WriteEntry> writeset_;
  std::vector<TxnId> commit_deps_;
  bool finished_ = false;
};

}  // namespace lstore

#endif  // LSTORE_TXN_TRANSACTION_H_
