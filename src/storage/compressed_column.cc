#include "storage/compressed_column.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <new>
#include <unordered_set>
#include <utility>

#include "common/bitutil.h"

namespace lstore {

// The serialized form is little-endian and copied verbatim.
static_assert(std::endian::native == std::endian::little);

namespace {

/// Code width of a FOR frame whose offsets span [0, span]: ∅ takes the
/// all-ones code, one above the largest offset.
int ForWidth(uint64_t span, bool has_null) {
  return span == ~0ull ? 64 : BitsNeeded(span + (has_null ? 1 : 0));
}

/// Bytes of a dictionary of `distinct` values coding `n` slots.
size_t DictionaryBytes(size_t n, size_t distinct) {
  return distinct * sizeof(Value) +
         BitPackedArray::PackedBytes(n, BitsNeeded(distinct - 1));
}

}  // namespace

std::unique_ptr<CompressedColumn> CompressedColumn::Build(
    std::vector<Value> values) {
  const size_t n = values.size();
  Header h;
  h.size = static_cast<uint32_t>(n);
  if (n == 0) return Allocate(h);

  // One branch-free pass: the run count and the frame [lo, hi] of the
  // non-∅ values (∅ is the largest value, so it never lowers lo).
  size_t runs = 1;
  Value lo = values[0], hi = 0;
  bool has_null = false;
  for (size_t i = 0; i < n; ++i) {
    const Value v = values[i];
    runs += i > 0 && v != values[i - 1];
    has_null |= v == kNull;
    lo = std::min(lo, v);
    hi = std::max(hi, v == kNull ? 0 : v);
  }
  if (lo > hi) lo = hi = 0;  // every slot is ∅
  // The first and last non-∅ slots (first == n when there is none).
  size_t first = 0, last = n - 1;
  while (first < n && values[first] == kNull) ++first;
  while (last > first && values[last] == kNull) --last;
  if (first == n) last = 0;
  const int for_width = ForWidth(hi - lo, has_null);

  // The strided frame: offsets from the line through the first and
  // last non-∅ values, measured as signed distances so that values on
  // both sides of the line stay near it.
  Value stride = 0, stride_base = 0;
  int stride_width = 64;
  if (last > first) {
    // Their slope, rounded to the nearest integer (modulo 2^64).
    const Value rise = values[last] - values[first], run = last - first;
    const bool down = static_cast<int64_t>(rise) < 0;
    const Value step = ((down ? 0 - rise : rise) + run / 2) / run;
    stride = down ? 0 - step : step;
  }
  if (stride != 0) {
    const Value anchor = values[first] - stride * first;
    int64_t below = 0, above = 0;
    for (size_t i = first; i <= last; ++i) {
      if (values[i] == kNull) continue;
      const auto d = static_cast<int64_t>(values[i] - stride * i - anchor);
      below = std::min(below, d);
      above = std::max(above, d);
    }
    stride_base = anchor + static_cast<Value>(below);
    stride_width = ForWidth(
        static_cast<Value>(above) - static_cast<Value>(below), has_null);
  }
  const size_t for_bytes =
      kForHeaderBytes + BitPackedArray::PackedBytes(n, for_width);
  const size_t stride_bytes = kForHeaderBytes + sizeof(Value) +
                              BitPackedArray::PackedBytes(n, stride_width);
  const bool strided = stride_bytes < for_bytes;

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
  consider(Encoding::kFor, strided ? stride_bytes : for_bytes);
  // A dictionary grows with its distinct count: count distinct values
  // only while a dictionary of that many could still be the smallest.
  // A value equal to its predecessor adds nothing, so only run heads
  // are counted: a one-run column needs no hash set.
  size_t limit = 1;
  while (DictionaryBytes(n, limit) < best_bytes) ++limit;
  std::vector<Value> dict;
  if (runs == 1) {
    dict.push_back(values[0]);
  } else {
    std::unordered_set<Value> distinct;
    for (size_t i = 0; i < n && distinct.size() < limit; ++i) {
      if (i == 0 || values[i] != values[i - 1]) distinct.insert(values[i]);
    }
    dict.assign(distinct.begin(), distinct.end());
  }
  if (dict.size() < limit) {
    consider(Encoding::kDictionary, DictionaryBytes(n, dict.size()));
  }

  // Encode into the one allocation.
  h.encoding = best;
  switch (best) {
    case Encoding::kPlain:
      break;
    case Encoding::kRle:
      h.aux = runs;
      break;
    case Encoding::kDictionary:
      h.aux = dict.size();
      h.width = static_cast<uint8_t>(BitsNeeded(dict.size() - 1));
      break;
    case Encoding::kFor:
      // FOR beat plain, so its width < 64 and the shift is defined.
      h.width = static_cast<uint8_t>(strided ? stride_width : for_width);
      h.has_null = has_null;
      h.strided = strided;
      h.aux = strided ? stride_base : lo;
      break;
  }
  std::unique_ptr<CompressedColumn> col = Allocate(h);
  uint64_t* w = col->words();
  switch (best) {
    case Encoding::kPlain:
      std::memcpy(w, values.data(), n * sizeof(Value));
      return col;
    case Encoding::kRle:
      for (size_t i = 0, k = 0; i < n; ++i) {
        if (i > 0 && values[i] == values[i - 1]) continue;
        w[k] = i;
        w[runs + k++] = values[i];
      }
      return col;
    case Encoding::kDictionary: {
      // Built from the distinct values counted above: all of them. The
      // codes replace the values in place; runs of equal values share
      // one search.
      std::sort(dict.begin(), dict.end());
      std::copy(dict.begin(), dict.end(), w);
      for (size_t i = 0, code = 0; i < n; ++i) {
        if (i == 0 || values[i] != dict[code]) {
          code = static_cast<size_t>(
              std::lower_bound(dict.begin(), dict.end(), values[i]) -
              dict.begin());
        }
        values[i] = code;
      }
      break;
    }
    case Encoding::kFor: {
      const Value step = strided ? stride : 0;
      if (strided) w[0] = step;
      const uint64_t null_code = (1ull << h.width) - 1;
      // Zero-width codes (every value on the line) need no offsets.
      for (size_t i = 0; h.width > 0 && i < n; ++i) {
        Value& v = values[i];
        v = v == kNull ? null_code : v - step * i - h.aux;
      }
      break;
    }
  }
  BitPackedArray::Pack(values.data(), n, h.width, w + CodesWord(h));
  return col;
}

std::unique_ptr<CompressedColumn> CompressedColumn::Allocate(const Header& h) {
  const uint64_t bytes = SerializedBytes(h);
  void* mem = ::operator new(bytes);
  std::memset(static_cast<char*>(mem) + kHeaderBytes, 0, bytes - kHeaderBytes);
  return std::unique_ptr<CompressedColumn>(new (mem) CompressedColumn(h));
}

Value CompressedColumn::RunValue(size_t i) const {
  const uint64_t* starts = words();
  const size_t run = static_cast<size_t>(
      std::upper_bound(starts, starts + h_.aux, i) - starts);
  return starts[h_.aux + run - 1];
}

void CompressedColumn::DecodeForBlock(size_t block, Value* out) const {
  const size_t first = block * BitPackedArray::kBlock;
  const Value stride = Stride();
  const Value line = h_.aux + stride * first;
  codes().UnpackBlock(block, line, out, stride);
  if (!h_.has_null) return;
  // Codes are narrower than 64 bits, so only the null code decodes to
  // the slot's line + null code (modulo 2^64).
  Value null_value = line + NullCode();
  const size_t n = std::min<size_t>(BitPackedArray::kBlock, h_.size - first);
  for (size_t j = 0; j < n; ++j, null_value += stride) {
    if (out[j] == null_value) out[j] = kNull;
  }
}

void CompressedColumn::Cursor::Load(size_t block) {
  constexpr size_t kBlock = BitPackedArray::kBlock;
  block_ = block;
  const size_t first = block * kBlock;
  const Header& h = col_->h_;
  const uint64_t* w = col_->words();
  if (h.encoding == Encoding::kPlain) {
    values_ = w + first;
    return;
  }
  if (buf_ == nullptr) buf_ = std::make_unique_for_overwrite<Value[]>(kBlock);
  values_ = buf_.get();
  const size_t n = std::min<size_t>(kBlock, h.size - first);
  switch (h.encoding) {
    case Encoding::kPlain:
      break;
    case Encoding::kDictionary:
      col_->codes().UnpackBlock(block, 0, buf_.get());
      for (size_t j = 0; j < n; ++j) buf_[j] = w[buf_[j]];
      break;
    case Encoding::kRle: {
      // Fill the block run by run; run_ only moves forward. The starts
      // are w[0, aux), the run values w[aux, 2·aux).
      const size_t runs = h.aux;
      for (size_t j = 0; j < n;) {
        while (run_ + 1 < runs && first + j >= w[run_ + 1]) ++run_;
        const size_t end =
            run_ + 1 < runs ? std::min<size_t>(n, w[run_ + 1] - first) : n;
        std::fill(buf_.get() + j, buf_.get() + end, w[runs + run_]);
        j = end;
      }
      break;
    }
    case Encoding::kFor:
      col_->DecodeForBlock(block, buf_.get());
      break;
  }
}

void CompressedColumn::PutHeader(std::string* out, const Header& h) {
  out->append(reinterpret_cast<const char*>(&h), sizeof(h));
}

bool CompressedColumn::GetHeader(std::string_view in, Header* h) {
  if (in.size() < kHeaderBytes) return false;
  std::memcpy(h, in.data(), kHeaderBytes);
  if (h->has_null > 1 || h->strided > 1 ||
      ((h->has_null || h->strided) && h->encoding != Encoding::kFor)) {
    return false;
  }
  switch (h->encoding) {
    case Encoding::kPlain:
      return h->width == 0 && h->aux == 0;
    case Encoding::kRle:
      return h->width == 0 && h->aux >= 1 && h->aux <= h->size;
    case Encoding::kDictionary:
      return h->aux >= 1 && h->aux <= h->size &&
             h->width == BitsNeeded(h->aux - 1);
    case Encoding::kFor:
      // ∅ takes the all-ones code, so a frame holding ∅ is >= 1 bit.
      return h->size >= 1 && h->width < 64 && (!h->has_null || h->width > 0);
  }
  return false;  // unknown tag
}

uint64_t CompressedColumn::SerializedBytes(const Header& h) {
  const uint64_t packed = BitPackedArray::PackedBytes(h.size, h.width);
  switch (h.encoding) {
    case Encoding::kPlain: return kHeaderBytes + h.size * sizeof(Value);
    case Encoding::kRle: return kHeaderBytes + h.aux * 2 * sizeof(Value);
    case Encoding::kFor:
      return kHeaderBytes + h.strided * sizeof(Value) + packed;
    case Encoding::kDictionary:
      return kHeaderBytes + h.aux * sizeof(Value) + packed;
  }
  return 0;
}

Status CompressedColumn::Parse(std::string_view in,
                               std::unique_ptr<CompressedColumn>* out) {
  Header h;
  if (!GetHeader(in, &h)) {
    return Status::Corruption("bad compressed column header");
  }
  // GetHeader bounds aux by the u32 slot count, so no size overflows.
  if (in.size() != SerializedBytes(h)) {
    return Status::Corruption("compressed column length mismatch");
  }
  // Adopt one copy, then check the arrays where they will be read.
  std::unique_ptr<CompressedColumn> col = Allocate(h);
  std::memcpy(col->words(), in.data() + kHeaderBytes, in.size() - kHeaderBytes);
  const uint64_t* w = col->words();
  switch (h.encoding) {
    case Encoding::kPlain:
      break;
    case Encoding::kRle:
      if (w[0] != 0 || w[h.aux - 1] >= h.size ||
          std::adjacent_find(w, w + h.aux, std::greater_equal<>()) !=
              w + h.aux) {
        return Status::Corruption("compressed column RLE starts out of order");
      }
      break;
    case Encoding::kFor:
      if (h.strided && w[0] == 0) {
        return Status::Corruption("compressed column zero FOR stride");
      }
      break;
    case Encoding::kDictionary: {
      Value block[BitPackedArray::kBlock];
      for (size_t b = 0; b * BitPackedArray::kBlock < h.size; ++b) {
        col->codes().UnpackBlock(b, 0, block);
        const size_t n = std::min<size_t>(BitPackedArray::kBlock,
                                          h.size - b * BitPackedArray::kBlock);
        if (*std::max_element(block, block + n) >= h.aux) {
          return Status::Corruption("compressed column code past dictionary");
        }
      }
      break;
    }
  }
  *out = std::move(col);
  return Status::OK();
}

bool CompressedColumn::ReadSlot(const Header& h, uint32_t slot,
                                const ReadFn& read, Value* out) {
  if (slot >= h.size) return false;
  std::string buf;
  auto word_at = [&](uint64_t offset, uint64_t* v) {
    if (!read(offset, sizeof(uint64_t), &buf)) return false;
    std::memcpy(v, buf.data(), sizeof(uint64_t));
    return true;
  };
  // Code `slot` of the packed array at `offset`: the one or two words
  // its bits span.
  auto code_at = [&](uint64_t offset, uint64_t* code) {
    *code = 0;
    if (h.width == 0) return true;
    const uint64_t bit = uint64_t{slot} * h.width;
    const uint64_t nwords = bit % 64 + h.width > 64 ? 2 : 1;
    if (!read(offset + bit / 64 * sizeof(uint64_t), nwords * sizeof(uint64_t),
              &buf)) {
      return false;
    }
    uint64_t words[2] = {0, 0};
    std::memcpy(words, buf.data(), nwords * sizeof(uint64_t));
    *code = BitPackedArray::Extract(words, bit % 64, h.width);
    return true;
  };
  uint64_t code = 0;
  switch (h.encoding) {
    case Encoding::kPlain:
      return word_at(kHeaderBytes + uint64_t{slot} * sizeof(Value), out);
    case Encoding::kFor: {
      Value stride = 0;
      if ((h.strided && !word_at(kHeaderBytes, &stride)) ||
          !code_at(kHeaderBytes + CodesWord(h) * sizeof(Value), &code)) {
        return false;
      }
      *out = h.has_null && code == (1ull << h.width) - 1
                 ? kNull
                 : h.aux + stride * slot + code;
      return true;
    }
    case Encoding::kDictionary:
      return code_at(kHeaderBytes + CodesWord(h) * sizeof(Value), &code) &&
             code < h.aux && word_at(kHeaderBytes + code * sizeof(Value), out);
    case Encoding::kRle: {
      if (!read(kHeaderBytes, h.aux * sizeof(uint64_t), &buf)) return false;
      std::vector<uint64_t> starts(h.aux);
      std::memcpy(starts.data(), buf.data(), h.aux * sizeof(uint64_t));
      const size_t run = static_cast<size_t>(
          std::upper_bound(starts.begin(), starts.end(), slot) -
          starts.begin());
      return run > 0 &&
             word_at(kHeaderBytes + (h.aux + run - 1) * sizeof(Value), out);
    }
  }
  return false;
}

}  // namespace lstore
