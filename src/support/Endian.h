//===- support/Endian.h - Explicit little-endian integer I/O ---*- C++ -*-===//
//
// Part of the ORP reproduction of "Exposing Memory Access Regularities
// Using Object-Relative Memory Profiling" (CGO 2004).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fixed-width little-endian integer encoding, written byte-by-byte so
/// that on-disk artifacts (OMSG archives, .orpt traces) are portable
/// across hosts regardless of native byte order or struct layout. All
/// fixed-width fields in this repository's file formats go through these
/// helpers; variable-width fields use support/VarInt.
///
//===----------------------------------------------------------------------===//

#ifndef ORP_SUPPORT_ENDIAN_H
#define ORP_SUPPORT_ENDIAN_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace orp {

/// Appends \p Value to \p Out as 2 little-endian bytes.
inline void appendLE16(uint16_t Value, std::vector<uint8_t> &Out) {
  Out.push_back(static_cast<uint8_t>(Value));
  Out.push_back(static_cast<uint8_t>(Value >> 8));
}

/// Appends \p Value to \p Out as 4 little-endian bytes.
inline void appendLE32(uint32_t Value, std::vector<uint8_t> &Out) {
  for (unsigned I = 0; I != 4; ++I)
    Out.push_back(static_cast<uint8_t>(Value >> (8 * I)));
}

/// Appends \p Value to \p Out as 8 little-endian bytes.
inline void appendLE64(uint64_t Value, std::vector<uint8_t> &Out) {
  for (unsigned I = 0; I != 8; ++I)
    Out.push_back(static_cast<uint8_t>(Value >> (8 * I)));
}

/// Reads 2 little-endian bytes at \p Data.
inline uint16_t readLE16(const uint8_t *Data) {
  return static_cast<uint16_t>(Data[0]) |
         static_cast<uint16_t>(Data[1]) << 8;
}

/// Reads 4 little-endian bytes at \p Data. Spelled out, not looped, so
/// that -O2 already folds it into one load on little-endian hosts (the
/// CRC-32 kernel does two per 8-byte step).
inline uint32_t readLE32(const uint8_t *Data) {
  return static_cast<uint32_t>(Data[0]) |
         static_cast<uint32_t>(Data[1]) << 8 |
         static_cast<uint32_t>(Data[2]) << 16 |
         static_cast<uint32_t>(Data[3]) << 24;
}

/// Reads 8 little-endian bytes at \p Data.
inline uint64_t readLE64(const uint8_t *Data) {
  uint64_t Value = 0;
  for (unsigned I = 0; I != 8; ++I)
    Value |= static_cast<uint64_t>(Data[I]) << (8 * I);
  return Value;
}

} // namespace orp

#endif // ORP_SUPPORT_ENDIAN_H
