#include "storage/compression/dictionary.h"

#include <algorithm>
#include <utility>

#include "common/bitutil.h"

namespace lstore {

namespace {

std::vector<Value> SortedDistinct(std::vector<Value> values) {
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  return values;
}

}  // namespace

DictionaryColumn::DictionaryColumn(const std::vector<Value>& values)
    : DictionaryColumn(SortedDistinct(values), values) {}

DictionaryColumn::DictionaryColumn(std::vector<Value> dict,
                                   const std::vector<Value>& values)
    : dict_(std::move(dict)) {
  dict_.shrink_to_fit();
  const int width = BitsNeeded(dict_.empty() ? 0 : dict_.size() - 1);
  if (width == 0) {  // at most one value: every code is 0
    codes_ = BitPackedArray({}, values.size(), 0);
    return;
  }
  // Runs of equal values share one search.
  std::vector<uint64_t> codes(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    codes[i] = i > 0 && values[i] == values[i - 1]
                   ? codes[i - 1]
                   : static_cast<uint64_t>(
                         std::lower_bound(dict_.begin(), dict_.end(),
                                          values[i]) -
                         dict_.begin());
  }
  codes_ = BitPackedArray(codes, width);
}

void DictionaryColumn::DecodeBlock(size_t block, Value* out) const {
  codes_.UnpackBlock(block, 0, out);
  const size_t n = std::min(BitPackedArray::kBlock,
                            size() - block * BitPackedArray::kBlock);
  for (size_t j = 0; j < n; ++j) out[j] = dict_[out[j]];
}

}  // namespace lstore
