#include "core/crc32.h"

#include <array>
#include <bit>
#include <cstring>

namespace dmt::core {

namespace {

static_assert(std::endian::native == std::endian::little,
              "the 8-byte CRC step folds a host-order word; the library "
              "targets little-endian hosts (see io/container.cc)");

/// Slicing-by-8 tables: kCrcTables[0] is the classic byte table, and
/// kCrcTables[t][b] is the CRC state after byte b followed by t zero
/// bytes, so eight table lookups advance the CRC over eight bytes at once.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

constexpr CrcTables MakeCrcTables() {
  CrcTables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
    }
    tables[0][i] = crc;
  }
  for (size_t t = 1; t < 8; ++t) {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t prev = tables[t - 1][i];
      tables[t][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

constexpr CrcTables kCrcTables = MakeCrcTables();

}  // namespace

uint32_t Crc32(std::span<const std::byte> data, uint32_t seed) {
  uint32_t crc = ~seed;
  const std::byte* p = data.data();
  size_t size = data.size();
  for (; size >= 8; p += 8, size -= 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));  // unaligned-safe load
    word ^= crc;
    crc = kCrcTables[7][word & 0xFFu] ^
          kCrcTables[6][(word >> 8) & 0xFFu] ^
          kCrcTables[5][(word >> 16) & 0xFFu] ^
          kCrcTables[4][(word >> 24) & 0xFFu] ^
          kCrcTables[3][(word >> 32) & 0xFFu] ^
          kCrcTables[2][(word >> 40) & 0xFFu] ^
          kCrcTables[1][(word >> 48) & 0xFFu] ^
          kCrcTables[0][word >> 56];
  }
  for (; size > 0; ++p, --size) {
    crc = (crc >> 8) ^
          kCrcTables[0][(crc ^ static_cast<uint32_t>(*p)) & 0xFFu];
  }
  return ~crc;
}

uint32_t Crc32(const void* data, size_t size, uint32_t seed) {
  return Crc32(
      std::span<const std::byte>(static_cast<const std::byte*>(data), size),
      seed);
}

}  // namespace dmt::core
