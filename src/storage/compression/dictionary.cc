#include "storage/compression/dictionary.h"

#include <algorithm>

#include "common/bitutil.h"

namespace lstore {

DictionaryColumn::DictionaryColumn(const std::vector<Value>& values) {
  dict_ = values;
  std::sort(dict_.begin(), dict_.end());
  dict_.erase(std::unique(dict_.begin(), dict_.end()), dict_.end());
  dict_.shrink_to_fit();  // the copy held every value, not every distinct one

  std::vector<uint64_t> codes;
  codes.reserve(values.size());
  for (Value v : values) {
    codes.push_back(static_cast<uint64_t>(
        std::lower_bound(dict_.begin(), dict_.end(), v) - dict_.begin()));
  }
  int width = BitsNeeded(dict_.empty() ? 0 : dict_.size() - 1);
  codes_ = BitPackedArray(codes, width);
}

void DictionaryColumn::DecodeBlock(size_t block, Value* out) const {
  codes_.UnpackBlock(block, 0, out);
  const size_t n = std::min(BitPackedArray::kBlock,
                            size() - block * BitPackedArray::kBlock);
  for (size_t j = 0; j < n; ++j) out[j] = dict_[out[j]];
}

}  // namespace lstore
