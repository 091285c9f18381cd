#include "storage/compressed_column.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <unordered_set>
#include <utility>

#include "common/bitutil.h"

namespace lstore {

// The serialized form is little-endian and copied verbatim.
static_assert(std::endian::native == std::endian::little);

namespace {

void AppendWords(std::string* out, const std::vector<uint64_t>& words) {
  out->append(reinterpret_cast<const char*>(words.data()),
              words.size() * sizeof(uint64_t));
}

/// Copy `n` words from `*p` and advance it.
std::vector<uint64_t> TakeWords(const char** p, uint64_t n) {
  std::vector<uint64_t> words(n);
  // An empty vector's data() may be null, which memcpy must not get.
  if (n != 0) std::memcpy(words.data(), *p, n * sizeof(uint64_t));
  *p += n * sizeof(uint64_t);
  return words;
}

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
  auto col = std::unique_ptr<CompressedColumn>(new CompressedColumn());
  col->size_ = values.size();
  if (values.empty()) {
    col->plain_ = std::move(values);
    return col;
  }
  const size_t n = values.size();

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

  col->encoding_ = best;
  switch (best) {
    case Encoding::kPlain:
      col->plain_ = std::move(values);
      break;
    case Encoding::kRle:
      col->rle_ = RleColumn(values);
      break;
    case Encoding::kDictionary:
      // Built from the distinct values counted above: all of them.
      std::sort(dict.begin(), dict.end());
      col->dict_ = DictionaryColumn(std::move(dict), values);
      break;
    case Encoding::kFor: {
      // FOR beat plain, so its width < 64 and the shift is defined.
      const int width = strided ? stride_width : for_width;
      col->for_base_ = strided ? stride_base : lo;
      col->for_stride_ = strided ? stride : 0;
      if (has_null) col->for_null_code_ = (1ull << width) - 1;
      // Zero-width codes (every value on the line) need no offsets.
      for (size_t i = 0; width > 0 && i < n; ++i) {
        Value& v = values[i];
        v = v == kNull ? col->for_null_code_
                       : v - col->for_stride_ * i - col->for_base_;
      }
      col->for_codes_ = BitPackedArray(values, width);
      break;
    }
  }
  return col;
}

void CompressedColumn::DecodeForBlock(size_t block, Value* out) const {
  const size_t first = block * BitPackedArray::kBlock;
  const Value line = for_base_ + for_stride_ * first;
  for_codes_.UnpackBlock(block, line, out, for_stride_);
  if (for_null_code_ == kNull) return;  // no ∅ in this segment
  // Codes are narrower than 64 bits, so only the null code decodes to
  // the slot's line + null code (modulo 2^64).
  Value null_value = line + for_null_code_;
  const size_t n = std::min(BitPackedArray::kBlock, size_ - first);
  for (size_t j = 0; j < n; ++j, null_value += for_stride_) {
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
               first + j >= r.starts()[run_ + 1]) {
          ++run_;
        }
        const size_t end = run_ + 1 < r.run_count()
                               ? std::min(n, r.starts()[run_ + 1] - first)
                               : n;
        std::fill(buf_.get() + j, buf_.get() + end, r.values()[run_]);
        j = end;
      }
      break;
    }
    case Encoding::kFor:
      col_->DecodeForBlock(block, buf_.get());
      break;
  }
}

CompressedColumn::Header CompressedColumn::header() const {
  Header h;
  h.encoding = encoding_;
  h.size = static_cast<uint32_t>(size_);
  switch (encoding_) {
    case Encoding::kPlain:
      break;
    case Encoding::kDictionary:
      h.width = static_cast<uint8_t>(dict_.codes().width());
      h.aux = dict_.dictionary_size();
      break;
    case Encoding::kRle:
      h.aux = rle_.run_count();
      break;
    case Encoding::kFor:
      h.width = static_cast<uint8_t>(for_codes_.width());
      h.has_null = for_null_code_ != kNull;
      h.strided = for_stride_ != 0;
      h.aux = for_base_;
      break;
  }
  return h;
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

void CompressedColumn::AppendTo(std::string* out) const {
  const Header h = header();
  out->reserve(out->size() + SerializedBytes(h));
  PutHeader(out, h);
  switch (encoding_) {
    case Encoding::kPlain:
      AppendWords(out, plain_);
      break;
    case Encoding::kRle:
      AppendWords(out, rle_.starts());
      AppendWords(out, rle_.values());
      break;
    case Encoding::kFor:
      if (for_stride_ != 0) AppendWords(out, {for_stride_});
      AppendWords(out, for_codes_.words());
      break;
    case Encoding::kDictionary:
      AppendWords(out, dict_.dictionary());
      AppendWords(out, dict_.codes().words());
      break;
  }
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
  const char* p = in.data() + kHeaderBytes;
  const uint64_t code_words =
      BitPackedArray::PackedBytes(h.size, h.width) / sizeof(uint64_t);
  auto col = std::unique_ptr<CompressedColumn>(new CompressedColumn());
  col->encoding_ = h.encoding;
  col->size_ = h.size;
  switch (h.encoding) {
    case Encoding::kPlain:
      col->plain_ = TakeWords(&p, h.size);
      break;
    case Encoding::kRle: {
      std::vector<uint64_t> starts = TakeWords(&p, h.aux);
      if (starts[0] != 0 || starts.back() >= h.size ||
          std::adjacent_find(starts.begin(), starts.end(),
                             std::greater_equal<>()) != starts.end()) {
        return Status::Corruption("compressed column RLE starts out of order");
      }
      col->rle_ = RleColumn(std::move(starts), TakeWords(&p, h.aux), h.size);
      break;
    }
    case Encoding::kFor:
      col->for_base_ = h.aux;
      if (h.strided) {
        col->for_stride_ = TakeWords(&p, 1)[0];
        if (col->for_stride_ == 0) {
          return Status::Corruption("compressed column zero FOR stride");
        }
      }
      if (h.has_null) col->for_null_code_ = (1ull << h.width) - 1;
      col->for_codes_ =
          BitPackedArray(TakeWords(&p, code_words), h.size, h.width);
      break;
    case Encoding::kDictionary: {
      std::vector<Value> dict = TakeWords(&p, h.aux);
      BitPackedArray codes(TakeWords(&p, code_words), h.size, h.width);
      Value block[BitPackedArray::kBlock];
      for (size_t b = 0; b * BitPackedArray::kBlock < h.size; ++b) {
        codes.UnpackBlock(b, 0, block);
        const size_t n = std::min(BitPackedArray::kBlock,
                                  h.size - b * BitPackedArray::kBlock);
        if (*std::max_element(block, block + n) >= h.aux) {
          return Status::Corruption("compressed column code past dictionary");
        }
      }
      col->dict_ = DictionaryColumn(std::move(dict), std::move(codes));
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
          !code_at(kHeaderBytes + h.strided * sizeof(Value), &code)) {
        return false;
      }
      *out = h.has_null && code == (1ull << h.width) - 1
                 ? kNull
                 : h.aux + stride * slot + code;
      return true;
    }
    case Encoding::kDictionary:
      return code_at(kHeaderBytes + h.aux * sizeof(Value), &code) &&
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

size_t CompressedColumn::byte_size() const {
  switch (encoding_) {
    case Encoding::kPlain: return plain_.size() * sizeof(Value);
    case Encoding::kDictionary: return dict_.byte_size();
    case Encoding::kRle: return rle_.byte_size();
    case Encoding::kFor:
      return kForHeaderBytes + (for_stride_ != 0 ? sizeof(Value) : 0) +
             for_codes_.byte_size();
  }
  return 0;
}

}  // namespace lstore
