// Run-length encoding for low-cardinality, clustered columns (e.g. the
// Last Updated Time column after a merge, where large record ranges
// share the same consolidation timestamp).

#ifndef LSTORE_STORAGE_COMPRESSION_RLE_H_
#define LSTORE_STORAGE_COMPRESSION_RLE_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.h"

namespace lstore {

class RleColumn {
 public:
  RleColumn() = default;
  explicit RleColumn(const std::vector<Value>& values);
  /// Adopt runs (the serialized form): run k covers slots
  /// [starts[k], starts[k + 1]) of `size`.
  RleColumn(std::vector<uint64_t> starts, std::vector<Value> values,
            size_t size)
      : starts_(std::move(starts)), values_(std::move(values)), size_(size) {}

  /// O(log #runs) random access via binary search on run starts.
  Value Get(size_t i) const;


  size_t size() const { return size_; }
  size_t run_count() const { return starts_.size(); }
  /// The runs, for sequential (cursor) scans — a monotone reader
  /// advances run by run in O(1) instead of re-searching per slot —
  /// and for the serialized form.
  const std::vector<uint64_t>& starts() const { return starts_; }
  const std::vector<Value>& values() const { return values_; }
  size_t byte_size() const {
    return (starts_.size() + values_.size()) * sizeof(uint64_t);
  }

 private:
  std::vector<uint64_t> starts_;  // first index of each run
  std::vector<Value> values_;     // value of each run
  size_t size_ = 0;
};

}  // namespace lstore

#endif  // LSTORE_STORAGE_COMPRESSION_RLE_H_
