//===- traceio/BlockCodec.h - Standalone event-block decode ----*- C++ -*-===//
//
// Part of the ORP reproduction of "Exposing Memory Access Regularities
// Using Object-Relative Memory Profiling" (CGO 2004).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Decoder for one .orpt event block *payload*, usable outside a whole
/// trace file. Blocks decode independently — the writer resets the
/// address/time delta chains at every block boundary — so the same
/// payload bytes can arrive from a .orpt file (TraceReader) or from an
/// EVENTS frame of the orp-traced wire protocol (src/session) and
/// produce the identical event sequence.
///
/// Every failure carries the block index and the absolute byte offset
/// of the fault (\p BaseOffset plus the local position), so corruption
/// reports localize the bad byte, not just the bad file.
///
//===----------------------------------------------------------------------===//

#ifndef ORP_TRACEIO_BLOCKCODEC_H
#define ORP_TRACEIO_BLOCKCODEC_H

#include "traceio/TraceFormat.h"

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

namespace orp {
namespace traceio {

/// Verifies the CRC-32 of one event-block payload. On mismatch returns
/// false and sets \p Err to
/// "block <Index> at byte <BaseOffset>: checksum mismatch ...".
[[nodiscard]] bool verifyBlockChecksum(const uint8_t *Payload, size_t Len, uint32_t Crc,
                         uint64_t BlockIndex, uint64_t BaseOffset,
                         std::string &Err);

/// One fully decoded event block, shaped for batch injection: every
/// access in delivery order in one contiguous vector, with the
/// interspersed alloc/free events split out as boundaries. The session
/// hands each run of accesses between two boundaries to
/// MemoryInterface::injectAccessBatch as a single span — no per-event
/// dispatch.
struct DecodedBlock {
  /// An alloc or free, plus its position in the delivery order.
  struct Boundary {
    uint64_t AccessesBefore; ///< Accesses delivered before this event.
    TraceEvent E;            ///< Kind is Alloc or Free, never Access.
  };

  std::vector<trace::AccessEvent> Accesses; ///< All accesses, in order.
  std::vector<Boundary> Boundaries;         ///< All allocs/frees, in order.

  uint64_t events() const { return Accesses.size() + Boundaries.size(); }
  void clear() {
    Accesses.clear();
    Boundaries.clear();
  }
};

/// Decodes the \p EventCount events of one columnar event-block payload
/// into \p Out (contents replaced): each column in its own tight varint
/// loop (decode*LEB128Fast), then the columns are zipped back into
/// delivery order. Callers check the block's format version first
/// (TraceReader at open, ProfileSession::injectBlock per block). The
/// delta-decoder state starts at zero (block boundary contract).
/// Nothing is delivered on failure: \p Out is left empty and \p Err
/// carries the fault (a truncated column, column length mismatch,
/// overlong varint or unknown opcode). \p BlockIndex and \p BaseOffset
/// (the payload's absolute position in its file or stream, 0 when
/// standalone) only label diagnostics: "block <Index> at byte <abs>:
/// ...".
[[nodiscard]] bool decodeEventBlock(const uint8_t *Payload, size_t Len,
                                    uint64_t EventCount, DecodedBlock &Out,
                                    std::string &Err, uint64_t BlockIndex = 0,
                                    uint64_t BaseOffset = 0);

/// Walks \p Block in original delivery order, reconstituting the flat
/// TraceEvent view (for tools and tests that want one event at a time).
void forEachDecodedEvent(const DecodedBlock &Block,
                         const std::function<void(const TraceEvent &)> &Fn);

} // namespace traceio
} // namespace orp

#endif // ORP_TRACEIO_BLOCKCODEC_H
