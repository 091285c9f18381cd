// Read-optimized, immutable column segment.
//
// The merge process (Section 4.1.1, Step 3) writes consolidated
// values into new read-only pages and "any compression algorithm can
// be applied on the consolidated pages (on column basis)". This class
// owns one column of one update range in its read-optimized form.
// Build sizes four encodings and keeps the smallest (ties go to the
// earlier one in this order):
//  * plain — 8 bytes per value;
//  * RLE — one (start, value) pair per run;
//  * frame of reference (FOR) — a base plus each value's offset from
//    it, bit-packed at the width of the largest offset. ∅ takes the
//    all-ones code, so aborted-insert slots do not widen the frame;
//  * dictionary — sorted distinct values plus bit-packed codes.
// Point reads stay O(1) for every encoding but RLE (O(log #runs)).

#ifndef LSTORE_STORAGE_COMPRESSED_COLUMN_H_
#define LSTORE_STORAGE_COMPRESSED_COLUMN_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.h"
#include "storage/compression/bitpack.h"
#include "storage/compression/dictionary.h"
#include "storage/compression/rle.h"

namespace lstore {

class CompressedColumn {
 public:
  enum class Encoding { kPlain, kDictionary, kRle, kFor };

  /// Build the read-optimized form of `values`. When `try_compress` is
  /// false (or no codec is smaller), the plain layout is kept.
  static std::unique_ptr<CompressedColumn> Build(std::vector<Value> values,
                                                 bool try_compress);

  Value Get(size_t i) const {
    switch (encoding_) {
      case Encoding::kPlain: return plain_[i];
      case Encoding::kDictionary: return dict_.Get(i);
      case Encoding::kRle: return rle_.Get(i);
      case Encoding::kFor: return ForValue(for_codes_.Get(i));
    }
    return kNull;
  }

  /// Monotone sequential reader: positions passed to At() must be
  /// non-decreasing. Scans (Query) read a segment 64 slots at a time:
  /// At() is one block check and one load for every encoding; moving
  /// to the next block points into a plain segment or decodes the
  /// block once (a whole FOR block unpacks in one pass, an RLE block
  /// costs O(1) amortized per slot). This is where predicate and
  /// projection pushdown into the segment pays off.
  class Cursor {
   public:
    Cursor() = default;
    explicit Cursor(const CompressedColumn* col) : col_(col) {}

    Value At(size_t i) {
      const size_t block = i / BitPackedArray::kBlock;
      if (block != block_) Load(block);
      return values_[i % BitPackedArray::kBlock];
    }

   private:
    /// Make values_ hold the slots of `block`.
    void Load(size_t block);

    const CompressedColumn* col_ = nullptr;
    size_t block_ = SIZE_MAX;
    /// The slots of block_: into plain_ for a plain segment, else buf_.
    const Value* values_ = nullptr;
    size_t run_ = 0;  ///< RLE: the run holding the last decoded slot
    std::unique_ptr<Value[]> buf_;
  };

  Cursor cursor() const { return Cursor(this); }

  size_t size() const { return size_; }
  Encoding encoding() const { return encoding_; }
  size_t byte_size() const;

 private:
  CompressedColumn() = default;

  /// FOR's fixed fields: the base and the null code.
  static constexpr size_t kForHeaderBytes = 2 * sizeof(Value);

  Value ForValue(uint64_t code) const {
    return code == for_null_code_ ? kNull : for_base_ + code;
  }
  /// Decode one block of FOR values (see BitPackedArray::UnpackBlock).
  void DecodeForBlock(size_t block, Value* out) const;

  Encoding encoding_ = Encoding::kPlain;
  size_t size_ = 0;
  std::vector<Value> plain_;
  DictionaryColumn dict_;
  RleColumn rle_;
  Value for_base_ = 0;
  /// The all-ones code when the segment holds ∅; otherwise kNull,
  /// which no code narrower than 64 bits can equal.
  uint64_t for_null_code_ = kNull;
  BitPackedArray for_codes_;
};

}  // namespace lstore

#endif  // LSTORE_STORAGE_COMPRESSED_COLUMN_H_
