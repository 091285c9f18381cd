#include "common/checksum.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#define LSTORE_CRC32C_SSE42 1
#endif

namespace lstore {

namespace {

/// Castagnoli polynomial, bit-reflected (CRC32C processes LSB first).
constexpr uint32_t kPoly = 0x82F63B78u;

/// Slicing-by-8 tables: kTables[0] is the byte-at-a-time table, and
/// kTables[k][b] advances kTables[k - 1][b] by one more zero byte, so
/// eight lookups fold eight input bytes at once.
using Tables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Tables MakeTables() {
  Tables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) c = (c >> 1) ^ (kPoly & (0u - (c & 1u)));
    t[0][i] = c;
  }
  for (int k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xff];
    }
  }
  return t;
}

constexpr Tables kTables = MakeTables();

/// Little-endian 32-bit load from any alignment (one mov on x86).
inline uint32_t Load32Le(const char* p) {
  const auto* u = reinterpret_cast<const unsigned char*>(p);
  return uint32_t{u[0]} | uint32_t{u[1]} << 8 | uint32_t{u[2]} << 16 |
         uint32_t{u[3]} << 24;
}

}  // namespace

namespace crc32c_internal {

uint32_t Crc32cPortable(const char* data, size_t n, uint32_t seed) {
  uint32_t c = ~seed;
  while (n >= 8) {
    uint32_t lo = c ^ Load32Le(data);
    uint32_t hi = Load32Le(data + 4);
    c = kTables[7][lo & 0xff] ^ kTables[6][(lo >> 8) & 0xff] ^
        kTables[5][(lo >> 16) & 0xff] ^ kTables[4][lo >> 24] ^
        kTables[3][hi & 0xff] ^ kTables[2][(hi >> 8) & 0xff] ^
        kTables[1][(hi >> 16) & 0xff] ^ kTables[0][hi >> 24];
    data += 8;
    n -= 8;
  }
  while (n-- > 0) {
    c = (c >> 8) ^ kTables[0][(c ^ static_cast<uint8_t>(*data++)) & 0xff];
  }
  return ~c;
}

#if defined(LSTORE_CRC32C_SSE42)

// Compiled for SSE4.2 on its own: the rest of the build targets the
// baseline x86-64 ISA, so this kernel runs only after
// HardwareAvailable() says the CPU has the instruction.
__attribute__((target("sse4.2"))) uint32_t Crc32cHardware(const char* data,
                                                          size_t n,
                                                          uint32_t seed) {
  uint64_t c = ~seed;
  while (n >= 8) {
    uint64_t word;
    std::memcpy(&word, data, sizeof(word));
    c = _mm_crc32_u64(c, word);
    data += 8;
    n -= 8;
  }
  uint32_t c32 = static_cast<uint32_t>(c);
  while (n-- > 0) c32 = _mm_crc32_u8(c32, static_cast<uint8_t>(*data++));
  return ~c32;
}

bool HardwareAvailable() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2");
}

#else

uint32_t Crc32cHardware(const char* data, size_t n, uint32_t seed) {
  return Crc32cPortable(data, n, seed);
}

bool HardwareAvailable() { return false; }

#endif

}  // namespace crc32c_internal

uint32_t Crc32c(const char* data, size_t n, uint32_t seed) {
  static const bool hardware = crc32c_internal::HardwareAvailable();
  return hardware ? crc32c_internal::Crc32cHardware(data, n, seed)
                  : crc32c_internal::Crc32cPortable(data, n, seed);
}

}  // namespace lstore
