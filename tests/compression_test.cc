// Codec tests: varint, bit packing, dictionary, RLE, frame of
// reference, and the smallest-wins encoding chooser used for merged
// base pages (Section 4.1.1 Step 3 / Section 4.3).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/bitutil.h"
#include "common/random.h"
#include "storage/compressed_column.h"
#include "storage/compression/bitpack.h"
#include "storage/compression/dictionary.h"
#include "storage/compression/rle.h"
#include "storage/compression/varint.h"

namespace lstore {
namespace {

TEST(VarintTest, RoundTripBoundaries) {
  std::vector<uint64_t> values = {0,    1,    127,  128,   16383, 16384,
                                  1u << 21, 1ull << 42, UINT64_MAX};
  std::string buf;
  for (uint64_t v : values) PutVarint64(&buf, v);
  size_t pos = 0;
  for (uint64_t v : values) {
    uint64_t got;
    ASSERT_TRUE(GetVarint64(buf, &pos, &got));
    EXPECT_EQ(got, v);
  }
  EXPECT_EQ(pos, buf.size());
}

TEST(VarintTest, LengthMatchesEncoding) {
  for (uint64_t v : {0ull, 127ull, 128ull, 300ull, (1ull << 56) + 5}) {
    std::string buf;
    PutVarint64(&buf, v);
    EXPECT_EQ(buf.size(), VarintLength(v));
  }
}

TEST(VarintTest, TruncatedInputFails) {
  std::string buf;
  PutVarint64(&buf, 1ull << 40);
  buf.pop_back();
  size_t pos = 0;
  uint64_t v;
  EXPECT_FALSE(GetVarint64(buf, &pos, &v));
}

TEST(BitPackTest, WidthZeroMeansAllZeros) {
  BitPackedArray arr(std::vector<uint64_t>(10, 0), 0);
  EXPECT_EQ(arr.size(), 10u);
  for (size_t i = 0; i < 10; ++i) EXPECT_EQ(arr.Get(i), 0u);
}

TEST(BitPackTest, CrossWordBoundaries) {
  // width 13 guarantees values straddle 64-bit word boundaries.
  std::vector<uint64_t> vals;
  for (uint64_t i = 0; i < 200; ++i) vals.push_back(i * 37 % 8192);
  BitPackedArray arr(vals, 13);
  for (size_t i = 0; i < vals.size(); ++i) EXPECT_EQ(arr.Get(i), vals[i]);
}

TEST(BitPackTest, FullWidth64) {
  std::vector<uint64_t> vals = {UINT64_MAX, 0, 0x123456789abcdef0ull};
  BitPackedArray arr(vals, 64);
  for (size_t i = 0; i < vals.size(); ++i) EXPECT_EQ(arr.Get(i), vals[i]);
}

TEST(BitPackTest, UnpackBlockMatchesGet) {
  // Widths that divide 64, that straddle word boundaries, and that
  // leave one bit spare; 300 values end in a partial block.
  for (int width : {1, 7, 12, 33, 63, 64}) {
    Random rng(width);
    std::vector<uint64_t> vals;
    for (int i = 0; i < 300; ++i) {
      vals.push_back(width == 64 ? rng.Next() : rng.Next() >> (64 - width));
    }
    vals[5] = width == 64 ? ~0ull : (1ull << width) - 1;  // all ones
    BitPackedArray arr(vals, width);
    EXPECT_EQ(arr.byte_size(), BitPackedArray::PackedBytes(300, width));
    uint64_t block[BitPackedArray::kBlock];
    // Stride ~0 adds base − j: the sum wraps modulo 2^64.
    for (uint64_t stride : {0ull, 5ull, ~0ull}) {
      for (size_t b = 0; b * BitPackedArray::kBlock < vals.size(); ++b) {
        arr.UnpackBlock(b, /*base=*/1000, block, stride);
        for (size_t j = 0; j < BitPackedArray::kBlock &&
                           b * BitPackedArray::kBlock + j < vals.size();
             ++j) {
          const size_t i = b * BitPackedArray::kBlock + j;
          ASSERT_EQ(block[j], vals[i] + 1000 + stride * j)
              << "width " << width << " stride " << stride << " at " << i;
          ASSERT_EQ(arr.Get(i), vals[i]) << "width " << width << " at " << i;
        }
      }
    }
  }
}

TEST(DictionaryTest, LowCardinalityCompresses) {
  std::vector<Value> vals;
  for (int i = 0; i < 4096; ++i) vals.push_back(1000 + i % 4);
  DictionaryColumn dict(vals);
  EXPECT_EQ(dict.dictionary_size(), 4u);
  EXPECT_LT(dict.byte_size(), vals.size() * sizeof(Value) / 8);
  for (size_t i = 0; i < vals.size(); ++i) EXPECT_EQ(dict.Get(i), vals[i]);
}

TEST(RleTest, RunsCollapse) {
  std::vector<Value> vals;
  for (int run = 0; run < 8; ++run) {
    for (int i = 0; i < 100; ++i) vals.push_back(run * 11);
  }
  RleColumn rle(vals);
  EXPECT_EQ(rle.run_count(), 8u);
  for (size_t i = 0; i < vals.size(); ++i) EXPECT_EQ(rle.Get(i), vals[i]);
}

TEST(RleTest, SingleElementAndAlternating) {
  RleColumn one(std::vector<Value>{7});
  EXPECT_EQ(one.Get(0), 7u);
  std::vector<Value> alt;
  for (int i = 0; i < 50; ++i) alt.push_back(i % 2);
  RleColumn rle(alt);
  EXPECT_EQ(rle.run_count(), 50u);
  for (size_t i = 0; i < alt.size(); ++i) EXPECT_EQ(rle.Get(i), alt[i]);
}

/// A FOR segment's fixed fields: its base and its null code.
constexpr size_t kForHeader = 2 * sizeof(Value);
/// A strided FOR segment's: those plus its stride.
constexpr size_t kStridedHeader = kForHeader + sizeof(Value);

/// Values lo + offsets, with offsets spanning exactly `width` bits.
std::vector<Value> FrameOfWidth(Value lo, int width, size_t n, uint64_t seed) {
  Random rng(seed);
  const uint64_t span = (1ull << width) - 1;
  std::vector<Value> vals;
  for (size_t i = 0; i < n; ++i) vals.push_back(lo + rng.Uniform(span + 1));
  vals[n / 2] = lo;
  vals[n / 3] = lo + span;
  return vals;
}

TEST(CompressedColumnTest, ForRoundTripsEachWidth) {
  for (int width : {1, 7, 12, 33, 63}) {
    // The base sits high so offsets, not raw values, set the width.
    const Value lo = width == 63 ? 5 : (1ull << 62) + 12345;
    auto vals = FrameOfWidth(lo, width, 1000, width);
    auto col = CompressedColumn::Build(vals, true);
    ASSERT_EQ(col->encoding(), CompressedColumn::Encoding::kFor) << width;
    EXPECT_EQ(col->byte_size(),
              kForHeader + BitPackedArray::PackedBytes(1000, width));
    auto cur = col->cursor();
    for (size_t i = 0; i < vals.size(); ++i) {
      ASSERT_EQ(col->Get(i), vals[i]) << "width " << width << " at " << i;
      ASSERT_EQ(cur.At(i), vals[i]) << "width " << width << " at " << i;
    }
  }
}

TEST(CompressedColumnTest, ForCodesNullWithoutWideningTheFrame) {
  // Aborted-insert slots merge as ∅: one extra code, not a 64-bit frame.
  // The values 1000000..1004095 in a scrambled order (1237 is odd, so
  // i * 1237 mod 4096 is a permutation) fit no line: a stride-0 frame.
  std::vector<Value> vals, sequential;
  for (Value i = 0; i < 4096; ++i) {
    vals.push_back(1000000 + i * 1237 % 4096);
    sequential.push_back(1000000 + i);
  }
  for (auto* v : {&vals, &sequential}) (*v)[7] = (*v)[100] = kNull;
  auto col = CompressedColumn::Build(vals, true);
  ASSERT_EQ(col->encoding(), CompressedColumn::Encoding::kFor);
  EXPECT_EQ(col->header().strided, 0);
  // Offsets need 12 bits; ∅ takes the all-ones code of 13.
  EXPECT_EQ(col->byte_size(),
            kForHeader + BitPackedArray::PackedBytes(4096, 13));
  // In slot order the same values sit on the line 1000000 + slot: every
  // offset is 0, and ∅ takes the all-ones code of 1 bit.
  auto line = CompressedColumn::Build(sequential, true);
  ASSERT_EQ(line->encoding(), CompressedColumn::Encoding::kFor);
  EXPECT_EQ(line->header().strided, 1);
  EXPECT_EQ(line->byte_size(),
            kStridedHeader + BitPackedArray::PackedBytes(4096, 1));
  for (const auto& [c, want] : {std::pair{col.get(), &vals},
                                std::pair{line.get(), &sequential}}) {
    auto cur = c->cursor();
    for (size_t i = 0; i < want->size(); ++i) {
      ASSERT_EQ(c->Get(i), (*want)[i]) << i;
      ASSERT_EQ(cur.At(i), (*want)[i]) << i;
    }
  }

  // A segment of nothing but ∅ (every insert aborted) still decodes.
  std::vector<Value> nulls(1000, kNull);
  nulls[0] = 5;
  auto one = CompressedColumn::Build(nulls, true);
  for (size_t i = 0; i < nulls.size(); ++i) ASSERT_EQ(one->Get(i), nulls[i]);
}

TEST(CompressedColumnTest, CursorStartsMidBlockAndSkipsBlocks) {
  // Cursors read every encoding 64 slots at a time. Monotone but
  // sparse positions: start inside block 0, stay within a block, jump
  // over several blocks, and end in the partial last block.
  constexpr size_t kN = 1000;
  Random rng(3);
  std::vector<std::vector<Value>> shapes;
  shapes.push_back(FrameOfWidth(777, 12, kN, 3));
  shapes.back()[200] = kNull;
  std::vector<Value> runs;  // runs of 100 straddle block boundaries
  while (runs.size() < kN) runs.resize(runs.size() + 100, rng.Next());
  shapes.push_back(runs);
  std::vector<Value> distinct = {rng.Next(), rng.Next(), rng.Next()};
  std::vector<Value> low_card;
  for (size_t i = 0; i < kN; ++i) low_card.push_back(distinct[rng.Uniform(3)]);
  shapes.push_back(low_card);
  std::vector<Value> random;
  for (size_t i = 0; i < kN; ++i) random.push_back(rng.Next());
  shapes.push_back(random);

  std::set<CompressedColumn::Encoding> seen;
  for (const auto& vals : shapes) {
    auto col = CompressedColumn::Build(vals, true);
    seen.insert(col->encoding());
    auto cur = col->cursor();
    for (size_t i : {37u, 38u, 63u, 64u, 65u, 200u, 201u, 640u, 959u, 960u,
                     999u}) {
      EXPECT_EQ(cur.At(i), vals[i]) << i;
    }
  }
  EXPECT_EQ(seen.size(), 4u);  // FOR, RLE, dictionary, plain
}

/// Build `vals`, expect encoding `want`, check that no codec would be
/// smaller, and read every value back through Get and a cursor.
void ExpectSmallestChoice(const std::vector<Value>& vals,
                          CompressedColumn::Encoding want) {
  auto col = CompressedColumn::Build(vals, true);
  EXPECT_EQ(col->encoding(), want);
  const Value lo = *std::min_element(vals.begin(), vals.end());
  const Value hi = *std::max_element(vals.begin(), vals.end());
  EXPECT_LE(col->byte_size(), vals.size() * sizeof(Value));
  EXPECT_LE(col->byte_size(), RleColumn(vals).byte_size());
  EXPECT_LE(col->byte_size(), DictionaryColumn(vals).byte_size());
  EXPECT_LE(col->byte_size(),
            kForHeader +
                BitPackedArray::PackedBytes(vals.size(), BitsNeeded(hi - lo)));
  auto cur = col->cursor();
  for (size_t i = 0; i < vals.size(); ++i) {
    ASSERT_EQ(col->Get(i), vals[i]) << i;
    ASSERT_EQ(cur.At(i), vals[i]) << i;
  }
}

TEST(CompressedColumnTest, ConstantColumnIsOneDictionaryEntry) {
  // 8 bytes with zero-width codes: smaller than one 16-byte run and
  // than a zero-width frame (base + null code).
  std::vector<Value> vals(4096, 42);
  ExpectSmallestChoice(vals, CompressedColumn::Encoding::kDictionary);
  EXPECT_EQ(CompressedColumn::Build(vals, true)->byte_size(), sizeof(Value));
}

TEST(CompressedColumnTest, ChoosesRleForLongRuns) {
  // Eight runs of values spread over 64 bits.
  Random rng(4);
  std::vector<Value> vals;
  for (int run = 0; run < 8; ++run) vals.resize(vals.size() + 512, rng.Next());
  ExpectSmallestChoice(vals, CompressedColumn::Encoding::kRle);
}

TEST(CompressedColumnTest, ChoosesFrameForAdjacentValues) {
  // 4096 unique values within 12 bits, in no order a line fits.
  std::vector<Value> vals;
  for (Value k = 0; k < 4096; ++k) vals.push_back(3 * 4096 + k * 1237 % 4096);
  ExpectSmallestChoice(vals, CompressedColumn::Encoding::kFor);
  EXPECT_EQ(CompressedColumn::Build(vals, true)->byte_size(),
            kForHeader + BitPackedArray::PackedBytes(4096, 12));
}

TEST(CompressedColumnTest, StridedFrameFollowsTheSlot) {
  // One update range of k + c climbs by one per slot: the line
  // base + slot leaves every offset 0, so the column is its header.
  std::vector<Value> kc, jitter, down;
  Random rng(8);
  for (Value k = 0; k < 4096; ++k) {
    kc.push_back(3 * 4096 + k);
    jitter.push_back(2 * k + rng.Uniform(3));  // offsets 0..2
    down.push_back((1ull << 50) - 7 * k + rng.Uniform(4));  // stride -7
  }
  const std::pair<const std::vector<Value>*, int> cases[] = {
      {&kc, 0}, {&jitter, 2}, {&down, 2}};
  for (const auto& [vals, width] : cases) {
    ExpectSmallestChoice(*vals, CompressedColumn::Encoding::kFor);
    auto col = CompressedColumn::Build(*vals, true);
    EXPECT_EQ(col->header().strided, 1) << width;
    EXPECT_LE(col->byte_size(),
              kStridedHeader + BitPackedArray::PackedBytes(4096, width));
  }
}

TEST(CompressedColumnTest, ChoosesDictionaryForLowCardinality) {
  // 16 values spread over 64 bits: a frame would need 64-bit offsets.
  Random rng(5);
  std::vector<Value> distinct;
  for (int i = 0; i < 16; ++i) distinct.push_back(rng.Next());
  std::vector<Value> vals;
  for (int i = 0; i < 4096; ++i) vals.push_back(distinct[rng.Uniform(16)]);
  ExpectSmallestChoice(vals, CompressedColumn::Encoding::kDictionary);
}

TEST(CompressedColumnTest, FallsBackToPlainForRandomData) {
  Random rng(6);
  std::vector<Value> vals;
  for (int i = 0; i < 4096; ++i) vals.push_back(rng.Next());
  ExpectSmallestChoice(vals, CompressedColumn::Encoding::kPlain);
}

TEST(CompressedColumnTest, CompressionDisabledKeepsPlain) {
  std::vector<Value> vals(1024, 1);
  auto col = CompressedColumn::Build(vals, false);
  EXPECT_EQ(col->encoding(), CompressedColumn::Encoding::kPlain);
}

// --- serialized form -------------------------------------------------------

/// Parse `bytes` from an allocation of exactly their size, so a read
/// past the end is a sanitizer error rather than a silent one.
Status ParseExact(std::string_view bytes,
                  std::unique_ptr<CompressedColumn>* out) {
  std::vector<char> copy(bytes.begin(), bytes.end());
  return CompressedColumn::Parse(std::string_view(copy.data(), copy.size()),
                                 out);
}

/// Serialize `col`, parse it back, and expect the parsed column to read
/// the same through Get and a cursor and to serialize to the same
/// bytes. Returns the bytes.
std::string ExpectSerializedRoundTrip(const CompressedColumn& col) {
  std::string bytes;
  col.AppendTo(&bytes);
  EXPECT_EQ(bytes.size(), CompressedColumn::SerializedBytes(col.header()));
  std::unique_ptr<CompressedColumn> back;
  Status s = ParseExact(bytes, &back);
  EXPECT_TRUE(s.ok()) << s.ToString();
  if (!s.ok()) return bytes;
  EXPECT_EQ(back->encoding(), col.encoding());
  EXPECT_EQ(back->size(), col.size());
  EXPECT_EQ(back->byte_size(), col.byte_size());
  EXPECT_TRUE(back->header() == col.header());
  auto a = col.cursor();
  auto b = back->cursor();
  for (size_t i = 0; i < col.size(); ++i) {
    EXPECT_EQ(back->Get(i), col.Get(i)) << i;
    EXPECT_EQ(b.At(i), a.At(i)) << i;
  }
  std::string again;
  back->AppendTo(&again);
  EXPECT_EQ(again, bytes);
  return bytes;
}

/// One sample column per shape the serialized form distinguishes.
std::vector<std::pair<std::string, std::vector<Value>>> SerdeSamples() {
  Random rng(21);
  std::vector<std::pair<std::string, std::vector<Value>>> out;
  std::vector<Value> plain, runs, frame, frame_null, dict;
  std::vector<Value> line, line_null, falling, wide_stride;
  for (Value i = 0; i < 1000; ++i) {
    // 7919 is coprime to 1000: offsets 0..999 in an order no line fits.
    const Value scrambled = i * 7919 % 1000;
    plain.push_back(rng.Next());
    runs.push_back((i / 100) * 1000003);
    frame.push_back(3 * 4096 + scrambled);
    frame_null.push_back(i % 9 == 4 ? kNull : 70000 + scrambled);
    dict.push_back(i % 3 == 0 ? (1ull << 55) : i % 3 == 1 ? 9 : 123456);
    line.push_back(3 * 4096 + i);
    line_null.push_back(i % 9 == 4 ? kNull : 70000 + 3 * i);
    falling.push_back(5000000 - 7 * i + rng.Uniform(4));
    wide_stride.push_back(12345 + (i << 40) + rng.Uniform(16));
  }
  out.emplace_back("plain", plain);
  out.emplace_back("rle", runs);
  out.emplace_back("for", frame);
  out.emplace_back("for_null", frame_null);
  out.emplace_back("dictionary", dict);
  out.emplace_back("empty", std::vector<Value>{});
  out.emplace_back("one", std::vector<Value>{kNull - 1});
  out.emplace_back("strided_width0", line);
  out.emplace_back("strided_null", line_null);
  out.emplace_back("strided_negative", falling);
  out.emplace_back("strided_2^40", wide_stride);
  return out;
}

/// A ReadSlot reader over serialized bytes.
CompressedColumn::ReadFn ReaderOf(const std::string& bytes) {
  return [&bytes](uint64_t offset, uint64_t length, std::string* out) {
    if (offset > bytes.size() || length > bytes.size() - offset) return false;
    out->assign(bytes, offset, length);
    return true;
  };
}

TEST(CompressedColumnSerdeTest, EveryEncodingRoundTrips) {
  using E = CompressedColumn::Encoding;
  const E want[] = {E::kPlain, E::kRle,   E::kFor, E::kFor,
                    E::kDictionary, E::kPlain, E::kPlain,
                    E::kFor,   E::kFor,   E::kFor, E::kFor};
  const int want_width[] = {0, 0, 10, 10, 2, 0, 0, 0, 1, 2, 4};
  auto samples = SerdeSamples();
  ASSERT_EQ(samples.size(), std::size(want));
  for (size_t k = 0; k < samples.size(); ++k) {
    const auto& [name, vals] = samples[k];
    SCOPED_TRACE(name);
    auto col = CompressedColumn::Build(vals, true);
    EXPECT_EQ(col->encoding(), want[k]);
    EXPECT_EQ(col->header().width, want_width[k]);
    EXPECT_EQ(col->header().has_null != 0,
              name == "for_null" || name == "strided_null");
    EXPECT_EQ(col->header().strided != 0, name.starts_with("strided"));
    const std::string bytes = ExpectSerializedRoundTrip(*col);
    // A cold point read of any slot decodes what Get does.
    for (uint32_t i = 0; i < vals.size(); ++i) {
      Value v = 0;
      ASSERT_TRUE(
          CompressedColumn::ReadSlot(col->header(), i, ReaderOf(bytes), &v))
          << i;
      ASSERT_EQ(v, vals[i]) << i;
      ASSERT_EQ(col->Get(i), vals[i]) << i;
    }
  }
}

TEST(CompressedColumnSerdeTest, UnstridedFrameBytesArePinned) {
  // A stride-0 frame keeps the form of builds that predate strides,
  // byte for byte: the 16-byte header, then the packed codes.
  auto col = CompressedColumn::Build({10, 12, kNull, 13, 10}, true);
  ASSERT_EQ(col->encoding(), CompressedColumn::Encoding::kFor);
  std::string bytes;
  col->AppendTo(&bytes);
  const unsigned char want[] = {
      3, 3, 1, 0,              // FOR, 3-bit codes, has ∅, no stride
      5, 0, 0, 0,              // 5 slots
      10, 0, 0, 0, 0, 0, 0, 0,  // base 10
      // codes 0, 2, 7 (∅), 3, 0 at 3 bits each: 0x7d0
      0xd0, 0x07, 0, 0, 0, 0, 0, 0};
  EXPECT_EQ(bytes, std::string(reinterpret_cast<const char*>(want),
                               sizeof(want)));
}

TEST(CompressedColumnSerdeTest, MergeShapesKeepTheirBytes) {
  // The three column shapes an insert merge builds: a constant column
  // (the Schema Encoding), a few distinct values, and k + c. Their
  // encodings and bytes are pinned as earlier builds wrote them.
  std::vector<Value> constant(100, 42), three, kc;
  for (int i = 0; i < 100; ++i) {
    three.push_back(std::vector<Value>{900, 5, 77}[i * 7 / 3 % 3]);
    kc.push_back(1003 + i);
  }
  using E = CompressedColumn::Encoding;
  const std::vector<unsigned char> want_constant = {
      1, 0, 0, 0, 100, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0,  // one entry
      42, 0, 0, 0, 0, 0, 0, 0};                         // zero-width codes
  const std::vector<unsigned char> want_three = {
      1, 2, 0, 0, 100, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0,  // 2-bit codes
      5, 0, 0, 0, 0, 0, 0, 0, 77, 0, 0, 0, 0, 0, 0, 0,  // sorted entries
      132, 3, 0, 0, 0, 0, 0, 0, 6, 22, 26, 88, 104, 96, 161, 129,
      133, 6, 22, 26, 88, 104, 96, 161, 129, 133, 6, 22, 26, 88, 104, 96,
      161, 0, 0, 0, 0, 0, 0, 0};
  const std::vector<unsigned char> want_kc = {
      3, 0, 0, 1, 100, 0, 0, 0, 235, 3, 0, 0, 0, 0, 0, 0,  // strided FOR
      1, 0, 0, 0, 0, 0, 0, 0};                            // stride 1
  const std::tuple<const std::vector<Value>*, E,
                   const std::vector<unsigned char>*>
      cases[] = {{&constant, E::kDictionary, &want_constant},
                 {&three, E::kDictionary, &want_three},
                 {&kc, E::kFor, &want_kc}};
  for (const auto& [vals, encoding, want] : cases) {
    auto col = CompressedColumn::Build(*vals, true);
    EXPECT_EQ(col->encoding(), encoding);
    const std::string bytes = ExpectSerializedRoundTrip(*col);
    EXPECT_EQ(bytes, std::string(want->begin(), want->end()));
    for (size_t i = 0; i < vals->size(); ++i) {
      ASSERT_EQ(col->Get(i), (*vals)[i]) << i;
    }
  }
}

TEST(CompressedColumnSerdeTest, ForWidthZeroRoundTrips) {
  // Build picks a zero-width frame only with a stride (a constant
  // column is a smaller one-entry dictionary), yet the form allows a
  // stride-0 one too: every slot is the base.
  CompressedColumn::Header h;
  h.encoding = CompressedColumn::Encoding::kFor;
  h.size = 130;
  h.aux = 987654321;
  std::string bytes;
  CompressedColumn::PutHeader(&bytes, h);
  ASSERT_EQ(bytes.size(), CompressedColumn::kHeaderBytes);
  std::unique_ptr<CompressedColumn> col;
  ASSERT_TRUE(ParseExact(bytes, &col).ok());
  for (size_t i = 0; i < h.size; ++i) ASSERT_EQ(col->Get(i), h.aux) << i;
  EXPECT_EQ(ExpectSerializedRoundTrip(*col), bytes);
}

TEST(CompressedColumnSerdeTest, ParserRejectsMalformedInput) {
  std::unique_ptr<CompressedColumn> col;
  std::string rle, dict, strided;
  for (const auto& [name, vals] : SerdeSamples()) {
    SCOPED_TRACE(name);
    std::string bytes;
    CompressedColumn::Build(vals, true)->AppendTo(&bytes);
    for (size_t len = 0; len < bytes.size(); ++len) {
      ASSERT_FALSE(
          ParseExact(std::string_view(bytes).substr(0, len), &col).ok())
          << "prefix " << len;
    }
    EXPECT_FALSE(ParseExact(bytes + '\0', &col).ok());
    for (char tag : {'\x04', '\x7f', '\xff'}) {
      std::string bad = bytes;
      bad[0] = tag;
      EXPECT_FALSE(ParseExact(bad, &col).ok());
    }
    // The stride flag is 0 or 1; set, it is FOR's and brings a word.
    std::string flagged = bytes;
    flagged[3] = 2;
    EXPECT_FALSE(ParseExact(flagged, &col).ok());
    if (bytes[3] == 0) {
      flagged[3] = 1;
      EXPECT_FALSE(ParseExact(flagged, &col).ok());
    }
    if (name == "rle") rle = bytes;
    if (name == "dictionary") dict = bytes;
    if (name == "strided_negative") strided = bytes;
  }

  // Strided: a zero stride word is no stride; a cut-off one is short.
  constexpr size_t kHdr = CompressedColumn::kHeaderBytes;
  ASSERT_TRUE(ParseExact(strided, &col).ok());
  std::string zero = strided;
  std::memset(zero.data() + kHdr, 0, sizeof(Value));
  EXPECT_FALSE(ParseExact(zero, &col).ok());
  CompressedColumn::Header h;
  h.encoding = CompressedColumn::Encoding::kFor;
  h.strided = 1;
  h.size = 10;
  std::string header_only;
  CompressedColumn::PutHeader(&header_only, h);
  EXPECT_FALSE(ParseExact(header_only + std::string(4, '\1'), &col).ok());
  EXPECT_TRUE(ParseExact(header_only + std::string(8, '\1'), &col).ok());

  // A frame of 64 or more bits is never smaller than plain.
  for (int width : {64, 65, 255}) {
    CompressedColumn::Header h;
    h.encoding = CompressedColumn::Encoding::kFor;
    h.width = static_cast<uint8_t>(width);
    h.size = 10;
    std::string bytes;
    CompressedColumn::PutHeader(&bytes, h);
    bytes.append(BitPackedArray::PackedBytes(10, width), '\0');
    EXPECT_FALSE(ParseExact(bytes, &col).ok()) << width;
  }

  // RLE: run starts must rise from 0 below the slot count.
  auto with_start = [&](size_t run, uint64_t start) {
    std::string bad = rle;
    std::memcpy(bad.data() + kHdr + run * sizeof(uint64_t), &start,
                sizeof(start));
    return bad;
  };
  ASSERT_TRUE(ParseExact(rle, &col).ok());
  EXPECT_FALSE(ParseExact(with_start(0, 1), &col).ok());
  EXPECT_FALSE(ParseExact(with_start(2, 100), &col).ok());  // == run 1
  EXPECT_FALSE(ParseExact(with_start(2, 50), &col).ok());   // < run 1
  EXPECT_FALSE(ParseExact(with_start(9, 1000), &col).ok()); // == slots

  // Dictionary: three entries, 2-bit codes; code 3 names no entry.
  ASSERT_TRUE(ParseExact(dict, &col).ok());
  std::string bad = dict;
  uint64_t word;
  const size_t codes = kHdr + 3 * sizeof(Value);
  std::memcpy(&word, bad.data() + codes, sizeof(word));
  word |= 3ull << (2 * 5);  // slot 5
  std::memcpy(bad.data() + codes, &word, sizeof(word));
  EXPECT_FALSE(ParseExact(bad, &col).ok());
}

// Property sweep: every codec must round-trip across data shapes.
struct CodecCase {
  const char* name;
  int shape;  // 0=constant 1=monotone 2=low-card 3=random 4=zipf-ish
  size_t n;
};

class CodecRoundTrip : public ::testing::TestWithParam<CodecCase> {
 protected:
  std::vector<Value> MakeData() const {
    const CodecCase& c = GetParam();
    Random rng(c.shape * 31 + c.n);
    std::vector<Value> vals;
    vals.reserve(c.n);
    for (size_t i = 0; i < c.n; ++i) {
      switch (c.shape) {
        case 0: vals.push_back(77); break;
        case 1: vals.push_back(5000 + i * 7); break;
        case 2: vals.push_back(rng.Uniform(9)); break;
        case 3: vals.push_back(rng.Next()); break;
        default: vals.push_back(rng.Uniform(1 + i % 100)); break;
      }
    }
    return vals;
  }
};

TEST_P(CodecRoundTrip, CompressedColumnPreservesEveryValue) {
  auto vals = MakeData();
  auto col = CompressedColumn::Build(vals, true);
  ASSERT_EQ(col->size(), vals.size());
  for (size_t i = 0; i < vals.size(); ++i) {
    ASSERT_EQ(col->Get(i), vals[i]) << "at " << i;
  }
}

TEST_P(CodecRoundTrip, SerializedFormRoundTrips) {
  ExpectSerializedRoundTrip(*CompressedColumn::Build(MakeData(), true));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CodecRoundTrip,
    ::testing::Values(CodecCase{"const_small", 0, 100},
                      CodecCase{"const_page", 0, 4096},
                      CodecCase{"mono_small", 1, 100},
                      CodecCase{"mono_page", 1, 4096},
                      CodecCase{"lowcard_small", 2, 100},
                      CodecCase{"lowcard_page", 2, 4096},
                      CodecCase{"random_small", 3, 100},
                      CodecCase{"random_page", 3, 4096},
                      CodecCase{"zipf_small", 4, 100},
                      CodecCase{"zipf_page", 4, 4096},
                      CodecCase{"empty", 3, 0}, CodecCase{"one", 3, 1}),
    [](const ::testing::TestParamInfo<CodecCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace lstore
