#include "storage/compressed_column.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "common/bitutil.h"

namespace lstore {

namespace {

/// Bytes of a dictionary of `distinct` values coding `n` slots.
size_t DictionaryBytes(size_t n, size_t distinct) {
  return distinct * sizeof(Value) +
         BitPackedArray::PackedBytes(n, BitsNeeded(distinct - 1));
}

}  // namespace

std::unique_ptr<CompressedColumn> CompressedColumn::Build(
    std::vector<Value> values, bool try_compress) {
  auto col = std::unique_ptr<CompressedColumn>(new CompressedColumn());
  col->size_ = values.size();
  if (!try_compress || values.empty()) {
    col->plain_ = std::move(values);
    return col;
  }
  const size_t n = values.size();

  // One pass: the run count, and the frame [lo, hi] of the non-∅ values.
  size_t runs = 0;
  Value lo = kNull, hi = 0;
  bool has_null = false;
  for (size_t i = 0; i < n; ++i) {
    const Value v = values[i];
    if (i == 0 || v != values[i - 1]) ++runs;
    if (v == kNull) {
      has_null = true;
    } else {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
  }
  if (lo > hi) lo = hi = 0;  // every slot is ∅
  // ∅ takes the all-ones code, one above the largest offset.
  const int for_width = BitsNeeded(hi - lo + (has_null ? 1 : 0));

  // The smallest encoding wins; a tie keeps the earlier candidate.
  Encoding best = Encoding::kPlain;
  size_t best_bytes = n * sizeof(Value);
  auto consider = [&](Encoding e, size_t bytes) {
    if (bytes < best_bytes) {
      best = e;
      best_bytes = bytes;
    }
  };
  consider(Encoding::kRle, runs * 2 * sizeof(uint64_t));
  consider(Encoding::kFor,
           kForHeaderBytes + BitPackedArray::PackedBytes(n, for_width));
  // A dictionary grows with its distinct count: count distinct values
  // only while a dictionary of that many could still be the smallest.
  size_t limit = 1;
  while (DictionaryBytes(n, limit) < best_bytes) ++limit;
  std::unordered_set<Value> distinct;
  for (size_t i = 0; i < n && distinct.size() < limit; ++i) {
    distinct.insert(values[i]);
  }
  if (distinct.size() < limit) {
    consider(Encoding::kDictionary, DictionaryBytes(n, distinct.size()));
  }

  col->encoding_ = best;
  switch (best) {
    case Encoding::kPlain:
      col->plain_ = std::move(values);
      break;
    case Encoding::kRle:
      col->rle_ = RleColumn(values);
      break;
    case Encoding::kDictionary:
      col->dict_ = DictionaryColumn(values);
      break;
    case Encoding::kFor: {
      // FOR beat plain, so for_width < 64 and the shift is defined.
      col->for_base_ = lo;
      if (has_null) col->for_null_code_ = (1ull << for_width) - 1;
      for (Value& v : values) v = v == kNull ? col->for_null_code_ : v - lo;
      col->for_codes_ = BitPackedArray(values, for_width);
      break;
    }
  }
  return col;
}

void CompressedColumn::DecodeForBlock(size_t block, Value* out) const {
  for_codes_.UnpackBlock(block, for_base_, out);
  if (for_null_code_ == kNull) return;  // no ∅ in this segment
  // Codes are narrower than 64 bits, so only the null code decodes to
  // base + null code (modulo 2^64).
  const Value null_value = for_base_ + for_null_code_;
  const size_t n =
      std::min(BitPackedArray::kBlock, size_ - block * BitPackedArray::kBlock);
  for (size_t j = 0; j < n; ++j) {
    if (out[j] == null_value) out[j] = kNull;
  }
}

void CompressedColumn::Cursor::Load(size_t block) {
  constexpr size_t kBlock = BitPackedArray::kBlock;
  block_ = block;
  const size_t first = block * kBlock;
  if (col_->encoding_ == Encoding::kPlain) {
    values_ = col_->plain_.data() + first;
    return;
  }
  if (buf_ == nullptr) buf_ = std::make_unique_for_overwrite<Value[]>(kBlock);
  values_ = buf_.get();
  const size_t n = std::min(kBlock, col_->size_ - first);
  switch (col_->encoding_) {
    case Encoding::kPlain:
      break;
    case Encoding::kDictionary:
      col_->dict_.DecodeBlock(block, buf_.get());
      break;
    case Encoding::kRle: {
      // Fill the block run by run; run_ only moves forward.
      const RleColumn& r = col_->rle_;
      for (size_t j = 0; j < n;) {
        while (run_ + 1 < r.run_count() &&
               first + j >= r.run_start(run_ + 1)) {
          ++run_;
        }
        const size_t end = run_ + 1 < r.run_count()
                               ? std::min(n, r.run_start(run_ + 1) - first)
                               : n;
        std::fill(buf_.get() + j, buf_.get() + end, r.run_value(run_));
        j = end;
      }
      break;
    }
    case Encoding::kFor:
      col_->DecodeForBlock(block, buf_.get());
      break;
  }
}

size_t CompressedColumn::byte_size() const {
  switch (encoding_) {
    case Encoding::kPlain: return plain_.size() * sizeof(Value);
    case Encoding::kDictionary: return dict_.byte_size();
    case Encoding::kRle: return rle_.byte_size();
    case Encoding::kFor: return kForHeaderBytes + for_codes_.byte_size();
  }
  return 0;
}

}  // namespace lstore
