// Fixed-width bit packing: stores each value in exactly `width` bits.
// Random access in O(1), which is what dictionary- and FOR-encoded
// base pages need to serve point reads without decompressing the page.
// Sequential readers unpack 64 values at a time instead: a block of 64
// values spans exactly `width` whole words.
//
// A BitPackedArray is a view: the words belong to the caller (a
// compressed column's one allocation), and Pack writes them.

#ifndef LSTORE_STORAGE_COMPRESSION_BITPACK_H_
#define LSTORE_STORAGE_COMPRESSION_BITPACK_H_

#include <cstddef>
#include <cstdint>

#include "common/types.h"

namespace lstore {

class BitPackedArray {
 public:
  /// Values per UnpackBlock call.
  static constexpr size_t kBlock = 64;

  /// View `words` as the packing of `size` values at `width` bits
  /// (width in [0, 64]; width 0 means all values are zero); they must
  /// hold PackedBytes(size, width) bytes.
  BitPackedArray(const uint64_t* words, size_t size, int width)
      : words_(words), size_(size), width_(width) {}

  /// Pack `values[0, n)`, each of which must fit in `width` bits, into
  /// `out`: PackedBytes(n, width) bytes, zeroed.
  static void Pack(const uint64_t* values, size_t n, int width,
                   uint64_t* out);

  uint64_t Get(size_t i) const {
    if (width_ == 0) return 0;
    return Extract(words_, i * static_cast<size_t>(width_), width_);
  }

  /// The `width`-bit value (width in [1, 64]) that starts `bit` bits
  /// into `words`.
  static uint64_t Extract(const uint64_t* words, size_t bit, int width) {
    const size_t word = bit / 64;
    const int off = static_cast<int>(bit % 64);
    uint64_t v = words[word] >> off;
    if (off + width > 64) v |= words[word + 1] << (64 - off);
    return width < 64 ? v & ((1ull << width) - 1) : v;
  }

  /// Decode values [kBlock * block, kBlock * block + kBlock) into
  /// `out`, adding base + stride·j to the block's j-th value (modulo
  /// 2^64); the last, partial block fills only its remaining values.
  void UnpackBlock(size_t block, uint64_t base, uint64_t* out,
                   uint64_t stride = 0) const;

  size_t size() const { return size_; }

  /// Bytes a packing of `n` values at `width` bits occupies.
  static size_t PackedBytes(size_t n, int width) {
    return (n * static_cast<size_t>(width) + 63) / 64 * sizeof(uint64_t);
  }

 private:
  const uint64_t* words_;
  size_t size_;
  int width_;
};

}  // namespace lstore

#endif  // LSTORE_STORAGE_COMPRESSION_BITPACK_H_
