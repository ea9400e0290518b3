//===- support/Checksum.h - CRC-32 integrity checksums ---------*- C++ -*-===//
//
// Part of the ORP reproduction of "Exposing Memory Access Regularities
// Using Object-Relative Memory Profiling" (CGO 2004).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320, reflected) over byte
/// ranges. Every checksummed section of the .orpt trace format and the
/// OMSG archive header uses this one checksum so a truncated or
/// bit-flipped artifact fails loudly instead of decoding to garbage.
/// The kernel is portable slicing-by-8: eight bytes per step through
/// eight 256-entry tables, the bytewise loop for the tail.
///
//===----------------------------------------------------------------------===//

#ifndef ORP_SUPPORT_CHECKSUM_H
#define ORP_SUPPORT_CHECKSUM_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace orp {

/// Returns the CRC-32 of \p Size bytes at \p Data. crc32 of the ASCII
/// bytes "123456789" is 0xCBF43926 (the standard check value).
uint32_t crc32(const uint8_t *Data, size_t Size);

/// Returns the CRC-32 of \p Bytes.
inline uint32_t crc32(const std::vector<uint8_t> &Bytes) {
  return crc32(Bytes.data(), Bytes.size());
}

} // namespace orp

#endif // ORP_SUPPORT_CHECKSUM_H
