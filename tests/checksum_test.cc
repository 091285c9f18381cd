// CRC32C tests: published check values, agreement of the SSE4.2 and
// portable kernels at every length and alignment, and seed chaining.

#include <gtest/gtest.h>

#include <string>

#include "common/checksum.h"

namespace lstore {
namespace {

using crc32c_internal::Crc32cHardware;
using crc32c_internal::Crc32cPortable;
using crc32c_internal::HardwareAvailable;

// The standard check value and the RFC 3720 (iSCSI) test vectors.
TEST(Crc32cTest, KnownAnswers) {
  const std::string digits = "123456789";
  const std::string zeros(32, '\0');
  const std::string ones(32, '\xff');
  EXPECT_EQ(Crc32c(digits.data(), digits.size()), 0xE3069283u);
  EXPECT_EQ(Crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
  EXPECT_EQ(Crc32c(ones.data(), ones.size()), 0x62A8AB43u);
  EXPECT_EQ(Crc32cPortable(digits.data(), digits.size(), 0), 0xE3069283u);
  EXPECT_EQ(Crc32c(digits.data(), 0), 0u);
}

TEST(Crc32cTest, HardwareAndPortableAgreeAtEveryLengthAndAlignment) {
  if (!HardwareAvailable()) GTEST_SKIP() << "no SSE4.2 on this CPU";
  std::string buf(300 + 8, '\0');
  uint32_t x = 12345;
  for (char& c : buf) {
    x = x * 1103515245u + 12345u;
    c = static_cast<char>(x >> 24);
  }
  for (size_t align = 0; align < 8; ++align) {
    for (size_t len = 0; len <= 300; ++len) {
      const char* p = buf.data() + align;
      ASSERT_EQ(Crc32cHardware(p, len, 0), Crc32cPortable(p, len, 0))
          << "len " << len << " align " << align;
      ASSERT_EQ(Crc32cHardware(p, len, 0xdeadbeef),
                Crc32cPortable(p, len, 0xdeadbeef))
          << "len " << len << " align " << align;
    }
  }
}

TEST(Crc32cTest, SeedChainsAcrossPieces) {
  const std::string a = "lineage-based ";
  const std::string b = "storage architecture, checksummed in two pieces";
  const std::string ab = a + b;
  const uint32_t whole = Crc32c(ab.data(), ab.size());
  EXPECT_EQ(Crc32c(b.data(), b.size(), Crc32c(a.data(), a.size())), whole);
  // Every split point of the same bytes chains to the same value.
  for (size_t cut = 0; cut <= ab.size(); ++cut) {
    EXPECT_EQ(Crc32c(ab.data() + cut, ab.size() - cut,
                     Crc32c(ab.data(), cut)),
              whole)
        << "cut " << cut;
  }
}

}  // namespace
}  // namespace lstore
