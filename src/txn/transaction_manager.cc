#include "txn/transaction_manager.h"

#include <thread>

namespace lstore {

Transaction TransactionManager::Begin(IsolationLevel iso) {
  Timestamp begin = clock_.Tick();
  TxnId id = kTxnIdTag | begin;
  Shard& s = shards_[ShardOf(id)];
  {
    SpinGuard g(s.latch);
    auto info = std::make_unique<TxnInfo>();
    info->begin = begin;
    s.map.emplace(id, std::move(info));
  }
  return Transaction(id, begin, iso);
}

Timestamp TransactionManager::EnterPreCommit(Transaction* txn) {
  Shard& s = shards_[ShardOf(txn->id())];
  // Order matters for snapshot consistency: flip to pre-commit FIRST,
  // then acquire the commit timestamp. A reader that still observes
  // kActive is thereby guaranteed that this transaction's commit time
  // will exceed any snapshot the reader already holds; a reader that
  // observes kPreCommit waits for the (possibly still zero) commit
  // time and decides against it.
  {
    SpinGuard g(s.latch);
    auto it = s.map.find(txn->id());
    if (it != s.map.end()) {
      it->second->state.store(TxnState::kPreCommit,
                              std::memory_order_release);
    }
  }
  Timestamp commit = clock_.Tick();
  txn->set_commit_time(commit);
  {
    SpinGuard g(s.latch);
    auto it = s.map.find(txn->id());
    if (it != s.map.end()) {
      it->second->commit.store(commit, std::memory_order_release);
    }
  }
  return commit;
}

void TransactionManager::MarkCommitted(Transaction* txn) {
  Shard& s = shards_[ShardOf(txn->id())];
  SpinGuard g(s.latch);
  auto it = s.map.find(txn->id());
  if (it != s.map.end()) {
    it->second->state.store(TxnState::kCommitted, std::memory_order_release);
  }
}

void TransactionManager::MarkAborted(Transaction* txn) {
  Shard& s = shards_[ShardOf(txn->id())];
  SpinGuard g(s.latch);
  auto it = s.map.find(txn->id());
  if (it != s.map.end()) {
    it->second->state.store(TxnState::kAborted, std::memory_order_release);
  }
}

void TransactionManager::Retire(TxnId id) {
  Shard& s = shards_[ShardOf(id)];
  SpinGuard g(s.latch);
  s.map.erase(id);
}

TransactionManager::StateView TransactionManager::GetState(TxnId id) const {
  const Shard& s = shards_[ShardOf(id)];
  SpinGuard g(s.latch);
  auto it = s.map.find(id);
  StateView view;
  if (it == s.map.end()) return view;  // retired
  view.found = true;
  view.state = it->second->state.load(std::memory_order_acquire);
  view.commit = it->second->commit.load(std::memory_order_acquire);
  return view;
}

Resolution TransactionManager::ResolveTxnId(std::atomic<Value>* slot,
                                            Value* raw) const {
  for (;;) {
    StateView view = GetState(*raw);
    if (!view.found) {
      // Retired, so stamped (the invariant above): re-read the slot. An
      // unchanged re-read is a stamp still becoming visible; yield.
      Value reread = slot->load(std::memory_order_acquire);
      if (reread == *raw) {
        std::this_thread::yield();
        continue;
      }
      *raw = reread;
      return Resolve(slot, raw);
    }
    if (view.state == TxnState::kActive) return {Outcome::kActive};
    if (view.state == TxnState::kPreCommit) {
      return {Outcome::kPreCommit, view.commit};
    }
    Value stamp =
        view.state == TxnState::kCommitted ? view.commit : kAbortedStamp;
    // Losing the race is fine: another thread stamped the same value.
    Value expected = *raw;
    slot->compare_exchange_strong(expected, stamp, std::memory_order_acq_rel);
    *raw = stamp;
    return Resolve(slot, raw);
  }
}

bool TransactionManager::Undecided(TxnId id) const {
  StateView view = GetState(id);
  return view.found && (view.state == TxnState::kActive ||
                        view.state == TxnState::kPreCommit);
}

bool TransactionManager::AwaitOutcome(TxnId id) const {
  for (;;) {
    StateView view = GetState(id);
    if (!view.found) return true;
    if (view.state != TxnState::kPreCommit) {
      return view.state != TxnState::kAborted;
    }
    std::this_thread::yield();
  }
}

size_t TransactionManager::live_entries() const {
  size_t n = 0;
  for (const auto& s : shards_) {
    SpinGuard g(s.latch);
    n += s.map.size();
  }
  return n;
}

}  // namespace lstore
