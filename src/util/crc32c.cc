#include "util/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define DSF_CRC32C_SSE42 1
#endif

namespace dsf {
namespace {

// Table for the reflected Castagnoli polynomial, built once at first use
// (constant-initialized would need C++20 constexpr std::array loops that
// some toolchains still compile slowly; a function-local static is one
// branch per call after the first).
const std::array<uint32_t, 256>& Table() {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc & 1u) ? (crc >> 1) ^ 0x82F63B78u : crc >> 1;
      }
      t[i] = crc;
    }
    return t;
  }();
  return table;
}

#ifdef DSF_CRC32C_SSE42
// The SSE4.2 `crc32` instruction computes exactly the reflected
// Castagnoli CRC, 8 bytes per step. The target attribute compiles this
// one function for SSE4.2 without raising the whole build's baseline; it
// only runs after the CPUID check in Crc32cExtend.
__attribute__((target("sse4.2"))) uint32_t ExtendSse42(uint32_t crc,
                                                        const unsigned char* p,
                                                        size_t n) {
  uint64_t c = ~crc;
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    c = _mm_crc32_u64(c, word);
  }
  uint32_t c32 = static_cast<uint32_t>(c);
  for (; n > 0; ++p, --n) c32 = _mm_crc32_u8(c32, *p);
  return ~c32;
}
#endif

}  // namespace

uint32_t Crc32cExtendPortable(uint32_t crc, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  const std::array<uint32_t, 256>& table = Table();
  crc = ~crc;
  for (size_t i = 0; i < n; ++i) {
    crc = table[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t n) {
#ifdef DSF_CRC32C_SSE42
  static const bool has_sse42 = [] {
    __builtin_cpu_init();  // safe even if called from a static initializer
    return __builtin_cpu_supports("sse4.2") != 0;
  }();
  if (has_sse42) {
    return ExtendSse42(crc, static_cast<const unsigned char*>(data), n);
  }
#endif
  return Crc32cExtendPortable(crc, data, n);
}

}  // namespace dsf
