// RAII transaction session handle.
//
// A `Txn` binds the per-transaction state of the optimistic protocol
// (Section 5.1.1) to the engine that began it: `Commit()` runs the
// owning engine's commit pipeline, and a handle destroyed while still
// active aborts automatically, so no code path can leak an in-flight
// transaction. Point and batch operations take `Txn&`; the raw
// `Transaction` is engine-internal.

#ifndef LSTORE_TXN_TXN_H_
#define LSTORE_TXN_TXN_H_

#include <utility>

#include "common/status.h"
#include "txn/transaction.h"

namespace lstore {

/// Implemented by every engine that can begin/commit transactions
/// (Table, Database, and the layout/baseline variants); the virtual
/// hop only runs at commit/abort, never on the operation hot path.
class TxnContext {
 public:
  virtual Status CommitTxn(Transaction* txn) = 0;
  virtual void AbortTxn(Transaction* txn) = 0;

 protected:
  ~TxnContext() = default;
};

class Txn {
 public:
  Txn(TxnContext* host, Transaction txn)
      : host_(host), txn_(std::move(txn)) {}

  Txn(const Txn&) = delete;
  Txn& operator=(const Txn&) = delete;

  Txn(Txn&& other) noexcept : host_(other.host_), txn_(std::move(other.txn_)) {
    other.host_ = nullptr;
  }
  Txn& operator=(Txn&& other) noexcept {
    if (this != &other) {
      if (active()) Abort();
      host_ = other.host_;
      txn_ = std::move(other.txn_);
      other.host_ = nullptr;
    }
    return *this;
  }

  /// Auto-abort: a session that goes out of scope without committing
  /// leaves only tombstoned tail records behind.
  ~Txn() {
    if (active()) host_->AbortTxn(&txn_);
  }

  /// Validate, log, and atomically publish. After return (ok or not)
  /// the session is finished.
  Status Commit() {
    if (!active()) return Status::InvalidArgument("transaction finished");
    return host_->CommitTxn(&txn_);
  }

  /// Roll back: stamp this session's writes as aborted tombstones.
  void Abort() {
    if (active()) host_->AbortTxn(&txn_);
  }

  bool active() const { return host_ != nullptr && !txn_.finished(); }

  TxnId id() const { return txn_.id(); }
  Timestamp begin_time() const { return txn_.begin_time(); }
  Timestamp commit_time() const { return txn_.commit_time(); }
  IsolationLevel isolation() const { return txn_.isolation(); }

  /// The engine that began this session (engines verify ops are
  /// issued against the right scope).
  const TxnContext* host() const { return host_; }

  /// The protocol-level state (engine-internal; exposed for tests and
  /// the storage layers that record read/write sets).
  Transaction* raw() { return &txn_; }
  const Transaction* raw() const { return &txn_; }

 private:
  TxnContext* host_;
  Transaction txn_;
};

/// The session check every engine runs before an operation: refuse a
/// finished session, and one begun on an engine other than `engine`
/// or its enclosing `scope` (a foreign session would bypass `engine`
/// in its own commit, leaving the writes unstamped forever). Sessions
/// begun on an owning Database are valid on every member table.
inline Status CheckActive(const Txn& txn, const TxnContext* engine,
                          const TxnContext* scope = nullptr) {
  if (!txn.active()) return Status::InvalidArgument("transaction finished");
  if (txn.host() != engine && txn.host() != scope) {
    return Status::InvalidArgument("transaction bound to another engine");
  }
  return Status::OK();
}

}  // namespace lstore

#endif  // LSTORE_TXN_TXN_H_
