// Asynchronous merge manager (Section 4.1, Figure 5).
//
// "Writer threads place candidate tail pages to be merged into the
// merge queue while the merge thread continuously takes pages from
// the queue and processes them." One background thread per table; the
// merge itself is the range's (Range::InsertMerge / UpdateMerge), so
// tests can also drive it synchronously.

#ifndef LSTORE_CORE_MERGE_H_
#define LSTORE_CORE_MERGE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <thread>

namespace lstore {

class Table;

class MergeManager {
 public:
  explicit MergeManager(Table* table);
  ~MergeManager();

  void Start();
  void Stop();

  /// Enqueue a range for merging (insert-merge and/or update merge,
  /// decided when the task runs).
  void Enqueue(uint64_t range_id);

  /// Block until the queue is empty and the worker is idle.
  void Drain();

  uint64_t tasks_processed() const { return tasks_processed_; }

 private:
  void Loop();

  Table* table_;
  std::thread worker_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable idle_cv_;
  std::deque<uint64_t> queue_;
  bool running_ = false;
  bool busy_ = false;
  uint64_t tasks_processed_ = 0;
};

}  // namespace lstore

#endif  // LSTORE_CORE_MERGE_H_
