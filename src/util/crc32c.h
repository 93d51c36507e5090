// CRC32C (Castagnoli polynomial 0x1EDC6F41, reflected 0x82F63B78) — the
// checksum guarding the durable on-disk page format (storage/file_backend).
//
// The Castagnoli polynomial is the storage-industry choice (iSCSI, ext4,
// Btrfs, LevelDB/RocksDB block format) because its error-detection
// properties at 4KB block sizes beat CRC32's, and hardware assists exist
// on most ISAs. Every page read and write checksums a whole slot, so the
// CRC sits on the device path: the portable slice-by-one table walk costs
// ~8 µs per 2.7 KB slot, more than the pwrite it guards. On x86-64,
// Crc32cExtend therefore picks the SSE4.2 `crc32` instruction at run time
// (one CPUID test, no build option) and falls back to the table walk
// elsewhere. Both produce identical values; Crc32cExtendPortable is the
// table walk itself, kept callable as the reference the tests compare
// the dispatched path against.
//
// Masking: values are stored on disk unmasked. The format never
// checksums a buffer that itself embeds this CRC (the slot header's crc
// field is excluded from its own coverage), so RocksDB-style masking is
// unnecessary.

#ifndef DSF_UTIL_CRC32C_H_
#define DSF_UTIL_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace dsf {

// Extends `crc` (0 for a fresh computation) over `data[0, n)`.
uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t n);

// The portable table walk (same contract and values as Crc32cExtend).
uint32_t Crc32cExtendPortable(uint32_t crc, const void* data, size_t n);

inline uint32_t Crc32c(const void* data, size_t n) {
  return Crc32cExtend(0, data, n);
}

}  // namespace dsf

#endif  // DSF_UTIL_CRC32C_H_
