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
namespace core {
class ProfilingSession;
} // namespace core

namespace traceio {

/// Verifies the CRC-32 of one event-block payload. On mismatch returns
/// false and sets \p Err to
/// "block <Index> at byte <BaseOffset>: checksum mismatch ...".
[[nodiscard]] bool verifyBlockChecksum(const uint8_t *Payload, size_t Len, uint32_t Crc,
                         uint64_t BlockIndex, uint64_t BaseOffset,
                         std::string &Err);

/// Decodes the \p EventCount records of one event-block payload into
/// \p Fn, in delivery order. The delta-decoder state starts at zero
/// (block boundary contract). Returns false with \p Err set on any
/// malformed record; events delivered before the fault stand. \p
/// BlockIndex and \p BaseOffset (the payload's absolute position in
/// its file or stream, 0 when standalone) only label diagnostics:
/// "block <Index> at byte <abs>: malformed access record ...".
[[nodiscard]] bool decodeEventBlock(const uint8_t *Payload, size_t Len,
                      uint64_t EventCount,
                      const std::function<void(const TraceEvent &)> &Fn,
                      std::string &Err, uint64_t BlockIndex = 0,
                      uint64_t BaseOffset = 0);

/// One fully decoded v2 columnar block, shaped for batch injection:
/// every access in delivery order in one contiguous vector, with the
/// interspersed alloc/free events split out as boundaries. The replayer
/// hands each run of accesses between two boundaries to
/// MemoryInterface::injectAccessBatch as a single span — no per-event
/// dispatch — which is the point of the columnar layout.
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

/// Decodes one v2 columnar block payload into \p Out (contents
/// replaced). Column-at-a-time: each column is decoded in its own tight
/// varint loop (decode*LEB128Fast) before the columns are zipped into
/// \p Out. Unlike the streaming v1 decoder nothing is delivered on
/// failure — \p Out is left empty and \p Err carries the fault
/// (truncated column, column length mismatch, overlong varint, unknown
/// opcode) with the same "block <Index> at byte <abs>" prefix as v1
/// diagnostics.
[[nodiscard]] bool decodeEventBlockV2(const uint8_t *Payload, size_t Len,
                        uint64_t EventCount, DecodedBlock &Out,
                        std::string &Err, uint64_t BlockIndex = 0,
                        uint64_t BaseOffset = 0);

/// Walks \p Block in original delivery order, reconstituting the flat
/// TraceEvent view (for tools and tests that want the v1-shaped stream
/// regardless of on-disk format).
void forEachDecodedEvent(const DecodedBlock &Block,
                         const std::function<void(const TraceEvent &)> &Fn);

/// Version-dispatching decode: v1 payloads stream through the original
/// record decoder, v2 payloads decode columnar and are then walked in
/// delivery order. The event sequence delivered to \p Fn is identical
/// for the same recorded stream in either format.
[[nodiscard]] bool decodeEventBlockAny(uint8_t Version, const uint8_t *Payload,
                         size_t Len, uint64_t EventCount,
                         const std::function<void(const TraceEvent &)> &Fn,
                         std::string &Err, uint64_t BlockIndex = 0,
                         uint64_t BaseOffset = 0);

/// Injects \p Block (block \p BlockIndex) into \p Session's memory in
/// delivery order: every run of accesses between boundaries travels as
/// one injectAccessBatch span, frees go through injectFree and allocs
/// through the session's checked injectAlloc. Adds the events injected
/// to \p Injected. An allocation the OMC cannot register ends the block
/// before it: returns false with \p Err set.
[[nodiscard]] bool injectDecodedBlock(core::ProfilingSession &Session,
                                      const DecodedBlock &Block,
                                      uint64_t BlockIndex, uint64_t &Injected,
                                      std::string &Err);

/// Injects one v1-shaped event of block \p BlockIndex into \p Session,
/// with the same allocation check as injectDecodedBlock.
[[nodiscard]] bool injectEvent(core::ProfilingSession &Session,
                               const TraceEvent &E, uint64_t BlockIndex,
                               std::string &Err);

} // namespace traceio
} // namespace orp

#endif // ORP_TRACEIO_BLOCKCODEC_H
