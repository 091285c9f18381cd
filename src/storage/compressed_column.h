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
// The column has one form, in memory and wherever a base segment
// leaves memory (the segment store, checkpoint frames): one allocation
// holding a 16-byte header, then the encoding's raw little-endian
// arrays. Writing copies its bytes and loading adopts one checked copy,
// so no value is re-encoded; Get, the cursor and ReadSlot address the
// arrays by the same arithmetic.
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

  /// Build the read-optimized form of `values`: the smallest of the
  /// plain layout and every codec.
  static std::unique_ptr<CompressedColumn> Build(std::vector<Value> values);

  /// Append the serialized form (the column's bytes) to `out`.
  void AppendTo(std::string* out) const {
    out->append(reinterpret_cast<const char*>(this), SerializedBytes(h_));
  }
  /// Parse a serialized form, checking every length, width, run start
  /// and dictionary code; Corruption on any mismatch.
  static Status Parse(std::string_view in,
                      std::unique_ptr<CompressedColumn>* out);

  const Header& header() const { return h_; }
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
    const uint64_t* w = words();
    switch (h_.encoding) {
      case Encoding::kPlain: return w[i];
      case Encoding::kDictionary: return w[codes().Get(i)];
      case Encoding::kRle: return RunValue(i);
      case Encoding::kFor: {
        const uint64_t code = codes().Get(i);
        return code == NullCode() ? kNull : h_.aux + Stride() * i + code;
      }
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
    /// The slots of block_: into the plain values, else buf_.
    const Value* values_ = nullptr;
    size_t run_ = 0;  ///< RLE: the run holding the last decoded slot
    std::unique_ptr<Value[]> buf_;
  };

  Cursor cursor() const { return Cursor(this); }

  size_t size() const { return h_.size; }
  Encoding encoding() const { return h_.encoding; }
  /// The codec's bytes: the arrays, plus for FOR the base and null code
  /// it keeps in the header.
  size_t byte_size() const {
    return SerializedBytes(h_) -
           (h_.encoding == Encoding::kFor ? 0 : kHeaderBytes);
  }

  /// The header and the arrays behind it are one allocation.
  static void operator delete(void* p) { ::operator delete(p); }

 private:
  explicit CompressedColumn(const Header& h) : h_(h) {}
  /// A column of header `h`, its arrays zeroed.
  static std::unique_ptr<CompressedColumn> Allocate(const Header& h);

  /// FOR's fixed fields: the base and the null code (a strided frame
  /// adds its stride).
  static constexpr size_t kForHeaderBytes = 2 * sizeof(Value);

  /// The arrays behind the header.
  const uint64_t* words() const {
    return reinterpret_cast<const uint64_t*>(
        reinterpret_cast<const char*>(this) + kHeaderBytes);
  }
  uint64_t* words() {
    return reinterpret_cast<uint64_t*>(reinterpret_cast<char*>(this) +
                                       kHeaderBytes);
  }
  /// Where the packed codes of a column with header `h` start, in words
  /// past the header: after the dictionary, or after FOR's stride.
  static uint64_t CodesWord(const Header& h) {
    return h.encoding == Encoding::kDictionary ? h.aux : h.strided;
  }
  BitPackedArray codes() const {
    return BitPackedArray(words() + CodesWord(h_), h_.size, h_.width);
  }
  /// FOR: the code of ∅ (all ones), or kNull, which no code narrower
  /// than 64 bits equals, when the segment holds no ∅.
  uint64_t NullCode() const {
    return h_.has_null ? (1ull << h_.width) - 1 : kNull;
  }
  Value Stride() const { return h_.strided ? words()[0] : 0; }
  /// RLE: the value of the run holding slot `i` (O(log #runs)).
  Value RunValue(size_t i) const;
  /// Decode one block of FOR values (see BitPackedArray::UnpackBlock).
  void DecodeForBlock(size_t block, Value* out) const;

  Header h_;
};

static_assert(sizeof(CompressedColumn) == CompressedColumn::kHeaderBytes,
              "the arrays start right after the header");

}  // namespace lstore

#endif  // LSTORE_STORAGE_COMPRESSED_COLUMN_H_
