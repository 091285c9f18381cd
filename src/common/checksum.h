// CRC32C (Castagnoli polynomial): the one checksum of every durable
// and wire frame — redo, commit and archive logs, checkpoint frames and
// whole checkpoint files, swapped-out segment pages, and client/server
// frames.
//
// On x86-64 CPUs with SSE4.2 the `crc32` instruction folds 8 bytes per
// instruction; every other CPU runs a portable slicing-by-8 table
// kernel. The two produce identical values; the choice is made once,
// on first use.

#ifndef LSTORE_COMMON_CHECKSUM_H_
#define LSTORE_COMMON_CHECKSUM_H_

#include <cstddef>
#include <cstdint>

namespace lstore {

/// CRC32C of `data[0, n)`. `seed` chains: Crc32c(b, m, Crc32c(a, n))
/// equals the CRC32C of a followed by b, so a checksum can be built
/// incrementally over a file's frames.
uint32_t Crc32c(const char* data, size_t n, uint32_t seed = 0);

namespace crc32c_internal {

/// The two kernels behind Crc32c, exposed so tests can check that they
/// agree. Crc32cHardware requires HardwareAvailable().
uint32_t Crc32cPortable(const char* data, size_t n, uint32_t seed);
uint32_t Crc32cHardware(const char* data, size_t n, uint32_t seed);
bool HardwareAvailable();

}  // namespace crc32c_internal
}  // namespace lstore

#endif  // LSTORE_COMMON_CHECKSUM_H_
