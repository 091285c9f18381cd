// Dictionary encoding for read-optimized base pages.
//
// Section 4.1.1, Step 3: "Any compression algorithm (e.g., dictionary
// encoding) can be applied on the consolidated pages (on column
// basis)". Distinct values are collected into a sorted dictionary and
// each slot stores a bit-packed code; point reads stay O(1).

#ifndef LSTORE_STORAGE_COMPRESSION_DICTIONARY_H_
#define LSTORE_STORAGE_COMPRESSION_DICTIONARY_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.h"
#include "storage/compression/bitpack.h"

namespace lstore {

class DictionaryColumn {
 public:
  DictionaryColumn() = default;

  /// Build from raw values. Worth using only when the number of
  /// distinct values is small relative to the page (callers decide via
  /// byte_size()).
  explicit DictionaryColumn(const std::vector<Value>& values);
  /// Build from raw values and their distinct values, sorted: `dict`
  /// holds every value of `values` once. No copy or sort of `values`.
  DictionaryColumn(std::vector<Value> dict, const std::vector<Value>& values);
  /// Adopt a dictionary and codes into it (the serialized form).
  DictionaryColumn(std::vector<Value> dict, BitPackedArray codes)
      : dict_(std::move(dict)), codes_(std::move(codes)) {}

  Value Get(size_t i) const { return dict_[codes_.Get(i)]; }
  /// Decode one block of slots (see BitPackedArray::UnpackBlock).
  void DecodeBlock(size_t block, Value* out) const;
  size_t size() const { return codes_.size(); }
  size_t dictionary_size() const { return dict_.size(); }
  const std::vector<Value>& dictionary() const { return dict_; }
  const BitPackedArray& codes() const { return codes_; }
  size_t byte_size() const {
    return dict_.size() * sizeof(Value) + codes_.byte_size();
  }

 private:
  std::vector<Value> dict_;
  BitPackedArray codes_;
};

}  // namespace lstore

#endif  // LSTORE_STORAGE_COMPRESSION_DICTIONARY_H_
