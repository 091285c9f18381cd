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
//  * frame of reference (FOR) — each value's offset from the line
//    base + stride·slot, bit-packed at the width of the largest offset.
//    Build tries stride 0 (classic FOR) and the stride through the
//    first and last non-∅ values, and keeps the smaller: a column that
//    climbs with the slot (keys loaded in order, k + c) then packs at
//    ~0 bits instead of paying for its span (LeCo, Liu et al., SIGMOD
//    2024). ∅ takes the all-ones code, so aborted-insert slots do not
//    widen the frame;
//  * dictionary — sorted distinct values plus bit-packed codes.
// Point reads stay O(1) for every encoding but RLE (O(log #runs)).
//
// The column has one serialized form, used wherever a base segment
// leaves memory (the segment store, checkpoint frames) and parsed
// wherever it comes back: a 16-byte header, then the encoding's raw
// little-endian arrays, so writing and loading copy bytes instead of
// re-encoding values.
//
//   [tag u8][width u8][has_null u8][strided u8][slots u32][aux u64]
//   plain: slots values
//   RLE:   aux run starts, then aux run values
//   FOR:   strided: the stride word (nonzero); then the codes' packed
//          words (aux = base; has_null: ∅ = all-ones)
//   dict:  aux dictionary values, then the codes' packed words
//
// strided is 0 on every other column, so a stride-0 FOR column keeps
// the form of builds that predate strides; those builds refuse a
// strided one (Corruption).

#ifndef LSTORE_STORAGE_COMPRESSED_COLUMN_H_
#define LSTORE_STORAGE_COMPRESSED_COLUMN_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "storage/compression/bitpack.h"
#include "storage/compression/dictionary.h"
#include "storage/compression/rle.h"

namespace lstore {

class CompressedColumn {
 public:
  /// The serialized form's tag byte.
  enum class Encoding : uint8_t { kPlain, kDictionary, kRle, kFor };

  /// The serialized form's fixed header, stored as these 16 bytes: all
  /// a reader needs to address one slot of a stored column (ReadSlot)
  /// without the rest of it.
  struct Header {
    Encoding encoding = Encoding::kPlain;
    uint8_t width = 0;     ///< FOR / dictionary code width in bits
    uint8_t has_null = 0;  ///< FOR: 1 when the all-ones code is ∅
    uint8_t strided = 0;   ///< FOR: 1 when a stride word precedes the codes
    uint32_t size = 0;     ///< slots
    uint64_t aux = 0;      ///< FOR base, dictionary entries or RLE runs
    bool operator==(const Header&) const = default;
  };
  static constexpr size_t kHeaderBytes = sizeof(Header);
  static_assert(kHeaderBytes == 16);

  /// Build the read-optimized form of `values`. When `try_compress` is
  /// false (or no codec is smaller), the plain layout is kept.
  static std::unique_ptr<CompressedColumn> Build(std::vector<Value> values,
                                                 bool try_compress);

  /// Append the serialized form to `out`.
  void AppendTo(std::string* out) const;
  /// Parse a serialized form, checking every length, width, run start
  /// and dictionary code; Corruption on any mismatch.
  static Status Parse(std::string_view in,
                      std::unique_ptr<CompressedColumn>* out);

  Header header() const;
  static void PutHeader(std::string* out, const Header& h);
  /// Decode and check the header at the front of `in`.
  static bool GetHeader(std::string_view in, Header* h);
  /// Serialized size of a column with header `h`.
  static uint64_t SerializedBytes(const Header& h);

  /// Reads `length` bytes at `offset` of a stored serialized form.
  using ReadFn =
      std::function<bool(uint64_t offset, uint64_t length, std::string* out)>;
  /// Read slot `slot` of a stored column with header `h` through
  /// `read`, fetching only the bytes that slot needs: one word for
  /// plain, one or two for FOR (plus its stride), those plus one
  /// dictionary entry, or the run starts plus one run value for RLE.
  /// False when `read` fails or the stored bytes are inconsistent.
  static bool ReadSlot(const Header& h, uint32_t slot, const ReadFn& read,
                       Value* out);

  Value Get(size_t i) const {
    switch (encoding_) {
      case Encoding::kPlain: return plain_[i];
      case Encoding::kDictionary: return dict_.Get(i);
      case Encoding::kRle: return rle_.Get(i);
      case Encoding::kFor: return ForValue(for_codes_.Get(i), i);
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

  /// FOR's fixed fields: the base and the null code (a strided frame
  /// adds its stride).
  static constexpr size_t kForHeaderBytes = 2 * sizeof(Value);

  Value ForValue(uint64_t code, size_t slot) const {
    return code == for_null_code_ ? kNull
                                  : for_base_ + for_stride_ * slot + code;
  }
  /// Decode one block of FOR values (see BitPackedArray::UnpackBlock).
  void DecodeForBlock(size_t block, Value* out) const;

  Encoding encoding_ = Encoding::kPlain;
  size_t size_ = 0;
  std::vector<Value> plain_;
  DictionaryColumn dict_;
  RleColumn rle_;
  Value for_base_ = 0;
  Value for_stride_ = 0;  ///< added once per slot (modulo 2^64)
  /// The all-ones code when the segment holds ∅; otherwise kNull,
  /// which no code narrower than 64 bits can equal.
  uint64_t for_null_code_ = kNull;
  BitPackedArray for_codes_;
};

}  // namespace lstore

#endif  // LSTORE_STORAGE_COMPRESSED_COLUMN_H_
