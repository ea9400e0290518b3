//===- traceio/TraceFormat.h - The .orpt binary trace format ---*- C++ -*-===//
//
// Part of the ORP reproduction of "Exposing Memory Access Regularities
// Using Object-Relative Memory Profiling" (CGO 2004).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The on-disk layout of an ORP trace (.orpt): a persistent, compact
/// record of one instrumented run's probe event stream, decoupling event
/// collection from translation/decomposition (the two halves of the
/// paper's Figure 4 framework). A recorded trace can be replayed into a
/// fresh ProfilingSession on any host and yields bit-identical profiles.
///
/// File layout (all fixed-width fields little-endian, see
/// support/Endian.h; all variable-width fields LEB128, see
/// support/VarInt.h):
///
///   FixedHeader (36 bytes)
///     [0]  magic "ORPT"
///     [4]  u8  version (kFormatVersionV2, the columnar event payload
///          encoding; a reader rejects any other value)
///     [5]  u8  flags (kFlagHasRegistry | kFlagBlockTable; both are set
///          in every finalized file and no other bit may be)
///     [6]  u8  alloc policy (memsim::AllocPolicy)
///     [7]  u8  reserved (0)
///     [8]  u64 environment seed of the recorded run
///     [16] u64 registry section offset (0 => writer never finalized)
///     [24] u64 total event count
///     [32] u32 CRC-32 of header bytes [0, 32)
///   Event payloads, back to back with no framing, from offset 36 to the
///   registry offset; the block table says where each one ends.
///   Registry section at the registry offset:
///     u8 kind (kBlockRegistry) | uleb payloadLen | u32 CRC-32 | payload
///     payload: uleb numInstrs, per instr {uleb nameLen, name, u8 kind};
///              uleb numSites, per site {uleb nameLen, name,
///                                       uleb typeLen, type}
///   Block table section, right after the registry:
///     u8 kind (kBlockTable) | uleb payloadLen | u32 CRC-32 | payload
///     payload: uleb numBlocks, per block, in file order,
///              {uleb payloadLen, uleb eventCount, u32 CRC-32 of payload}
///     The payload lengths tile [36, registry offset) exactly and the
///     event counts sum to the header's total, so the reader finds every
///     block from this one section, without touching the payloads.
///   End marker: u8 kEndMarker, which must be the last byte of the file.
///
/// Event payload encoding (columnar). Each block holds its events'
/// fields struct-of-arrays: each field lives in its own contiguous
/// column so the decoder runs one tight, branch-predictable varint loop
/// per column instead of a per-record tag dispatch (DESIGN.md section
/// 15). Addresses and timestamps are delta-encoded against the previous
/// event; delta state resets to zero at every block boundary so blocks
/// decode independently (a corrupted block cannot poison its
/// successors, and a reader can start at any block). Every event has a
/// tag byte:
///
///   access: kOpAccess | kTagStore? | kTagSize8?
///   alloc:  kOpAlloc | kTagStatic?
///   free:   kOpFree
///
/// Five length-prefixed columns, in order:
///
///   kinds  uleb byteLen, then one tag byte per event
///          (byteLen must equal the block's event count)
///   ids    uleb byteLen, then uleb instr/site per access and alloc
///          event, in event order (frees contribute nothing)
///   addrs  uleb byteLen, then sleb addrDelta per event (every kind)
///   times  uleb byteLen, then sleb timeDelta per event (every kind)
///   sizes  uleb byteLen, then uleb size per non-kTagSize8 access and
///          per alloc, in event order
///
/// A column whose declared entries end before byteLen is exhausted (or
/// that runs dry early) is a "column length mismatch" — distinct from a
/// truncated payload, so fuzzers can tell framing bugs from codec bugs.
///
//===----------------------------------------------------------------------===//

#ifndef ORP_TRACEIO_TRACEFORMAT_H
#define ORP_TRACEIO_TRACEFORMAT_H

#include "trace/Events.h"

#include <cstdint>

namespace orp {
namespace traceio {

/// File magic: "ORPT".
constexpr uint8_t kMagic[4] = {'O', 'R', 'P', 'T'};

/// The .orpt format version: the columnar event payload encoding, the
/// only one this build writes or reads. The version names the payload
/// encoding only — the daemon wire protocol and
/// ProfileSession::injectBlock carry it with still-encoded blocks, and
/// each checks it — so a change to the container (header, sections) is
/// marked by a header flag, not by this byte (DESIGN.md section 7,
/// "Versioning policy").
constexpr uint8_t kFormatVersionV2 = 2;

/// Size in bytes of the fixed file header.
constexpr size_t kHeaderSize = 36;

/// Header flag: a registry section is present.
constexpr uint8_t kFlagHasRegistry = 0x01;
/// Header flag: the block table section follows the registry. Files
/// without it were recorded by an older writer and are rejected.
constexpr uint8_t kFlagBlockTable = 0x02;
/// The flags of every finalized trace; a reader rejects any other bit.
constexpr uint8_t kFlagsFinalized = kFlagHasRegistry | kFlagBlockTable;

/// Section kinds. (0x01 framed the in-line event blocks of the layout
/// older writers produced; it is not reused.)
constexpr uint8_t kBlockRegistry = 0x02;
constexpr uint8_t kBlockTable = 0x03;
constexpr uint8_t kEndMarker = 0xFF;

/// Record tag opcodes (low 3 bits of the tag byte).
constexpr uint8_t kOpAccess = 0x00;
constexpr uint8_t kOpAlloc = 0x01;
constexpr uint8_t kOpFree = 0x02;
constexpr uint8_t kOpMask = 0x07;

/// Tag modifier bits.
constexpr uint8_t kTagStore = 0x08;  ///< Access is a store.
constexpr uint8_t kTagSize8 = 0x10;  ///< Access width is 8 (elided field).
constexpr uint8_t kTagStatic = 0x08; ///< Alloc is a static object.

/// One decoded trace record, in original delivery order. A flat struct
/// rather than a variant: readers switch on Kind and use the fields that
/// apply (AccessEvent fields for Access, AllocEvent fields for Alloc...).
struct TraceEvent {
  enum class Kind : uint8_t { Access, Alloc, Free } K;
  uint32_t InstrOrSite = 0; ///< InstrId (access) or AllocSiteId (alloc).
  uint64_t Addr = 0;
  uint64_t Size = 0; ///< Access width or object size.
  uint64_t Time = 0;
  bool IsStore = false;  ///< Access only.
  bool IsStatic = false; ///< Alloc only.
};

/// Parsed fixed-header metadata plus file statistics.
struct TraceInfo {
  uint8_t Version = 0;
  uint8_t Flags = 0;
  uint8_t AllocPolicy = 0;
  uint64_t Seed = 0;
  uint64_t TotalEvents = 0;
  uint64_t NumBlocks = 0;
  uint64_t FileBytes = 0;
  uint64_t NumInstructions = 0;
  uint64_t NumAllocSites = 0;
};

} // namespace traceio
} // namespace orp

#endif // ORP_TRACEIO_TRACEFORMAT_H
