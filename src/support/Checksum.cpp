//===- support/Checksum.cpp - CRC-32 integrity checksums -----------------===//

#include "support/Checksum.h"

#include "support/Endian.h"

#include <array>

using namespace orp;

namespace {

using CrcTable = std::array<uint32_t, 256>;

/// Slicing-by-8 tables. Tables[0] is the bytewise table; Tables[K][I] is
/// the CRC of byte I followed by K zero bytes, so one 8-byte step is
/// eight independent lookups XORed together.
constexpr std::array<CrcTable, 8> makeCrcTables() {
  std::array<CrcTable, 8> Tables{};
  for (uint32_t I = 0; I != 256; ++I) {
    uint32_t Crc = I;
    for (int Bit = 0; Bit != 8; ++Bit)
      Crc = (Crc >> 1) ^ ((Crc & 1) ? 0xEDB88320u : 0u);
    Tables[0][I] = Crc;
  }
  for (size_t K = 1; K != 8; ++K)
    for (uint32_t I = 0; I != 256; ++I)
      Tables[K][I] =
          (Tables[K - 1][I] >> 8) ^ Tables[0][Tables[K - 1][I] & 0xFF];
  return Tables;
}

constexpr std::array<CrcTable, 8> Tables = makeCrcTables();

} // namespace

uint32_t orp::crc32(const uint8_t *Data, size_t Size) {
  uint32_t Crc = 0xFFFFFFFFu;
  for (; Size >= 8; Data += 8, Size -= 8) {
    const uint32_t Lo = readLE32(Data) ^ Crc;
    const uint32_t Hi = readLE32(Data + 4);
    Crc = Tables[7][Lo & 0xFF] ^ Tables[6][(Lo >> 8) & 0xFF] ^
          Tables[5][(Lo >> 16) & 0xFF] ^ Tables[4][Lo >> 24] ^
          Tables[3][Hi & 0xFF] ^ Tables[2][(Hi >> 8) & 0xFF] ^
          Tables[1][(Hi >> 16) & 0xFF] ^ Tables[0][Hi >> 24];
  }
  for (size_t I = 0; I != Size; ++I)
    Crc = (Crc >> 8) ^ Tables[0][(Crc ^ Data[I]) & 0xFF];
  return Crc ^ 0xFFFFFFFFu;
}
