//===- traceio/TraceReader.h - .orpt trace parsing -------------*- C++ -*-===//
//
// Part of the ORP reproduction of "Exposing Memory Access Regularities
// Using Object-Relative Memory Profiling" (CGO 2004).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Validating reader for .orpt traces. open() checks the magic, version,
/// flags, header checksum, registry and block-table sections, the
/// block table's tiling of the event section and the end marker;
/// forEachEvent() streams the decoded records block by block, verifying
/// each block's CRC before touching its payload. Trace files are
/// untrusted input: every failure mode (truncation, bit flips, bad
/// varints, trailing garbage) produces a clear error string instead of
/// an assert or undefined behavior.
///
/// open() maps a regular file read-only instead of copying it, and
/// validates it without touching the mapping: it reads the header, then
/// everything from the registry offset to the end (registry, block
/// table, end marker) with pread on the still-open file — two reads
/// whatever the number of blocks — so an open trace costs its block
/// table, not its size. Payload reads go through the mapping, and
/// reading the first block of each 256 KiB window first releases
/// (MADV_DONTNEED) the whole windows behind it, so a forward replay
/// keeps about one window of the trace resident however long the file
/// is. Reading the last block also releases the whole pages of its own
/// window before its payload, so a finished walk keeps only that block
/// resident.
/// The mapping is private and read-only: a released page refaults from
/// the page cache with the same bytes, so rawBlock() pointers stay valid
/// and every decode still checks its CRC first. Pipes and other
/// non-regular inputs are read into an owned buffer, as openImage()
/// images are, and the validator reads that buffer the same way, so
/// both paths give the same verdicts and messages. A mapped file that
/// another process truncates while the reader holds it raises SIGBUS on
/// the next access to the lost pages (the trade-off LLVM's MemoryBuffer
/// makes for non-volatile files).
///
//===----------------------------------------------------------------------===//

#ifndef ORP_TRACEIO_TRACEREADER_H
#define ORP_TRACEIO_TRACEREADER_H

#include "trace/InstructionRegistry.h"
#include "traceio/BlockCodec.h"
#include "traceio/TraceFormat.h"

#include <functional>
#include <string>
#include <vector>

namespace orp {
namespace traceio {

/// Parses and validates one .orpt file. Not copyable: the reader owns
/// its image (a mapping or a buffer) and hands out pointers into it.
class TraceReader {
public:
  TraceReader() = default;
  ~TraceReader();
  TraceReader(const TraceReader &) = delete;
  TraceReader &operator=(const TraceReader &) = delete;

  /// Maps (regular files) or reads (anything else) \p Path and
  /// validates everything except event payload contents (those are
  /// checked checksum-first by forEachEvent). Returns false with error()
  /// set on any problem; the verdict and message are those openImage()
  /// gives for the same bytes.
  [[nodiscard]] bool open(const std::string &Path);

  /// Structural validation of an in-memory image; used by open() and by
  /// tests that corrupt images without touching disk.
  [[nodiscard]] bool openImage(std::vector<uint8_t> Image, const std::string &Name);

  /// Header metadata and file statistics. Valid after open().
  const TraceInfo &info() const { return Info; }

  /// The recorded probe-site tables, in registration order.
  const std::vector<trace::InstrInfo> &instructions() const {
    return Instrs;
  }
  const std::vector<trace::AllocSiteInfo> &allocSites() const {
    return Sites;
  }

  /// Decodes every event in delivery order into \p Fn. Returns false
  /// with error() set on a corrupted payload; events already delivered
  /// before the corrupt block stand. Restartable (stateless).
  [[nodiscard]] bool forEachEvent(const std::function<void(const TraceEvent &)> &Fn);

  /// Number of event blocks in the block table; valid after open().
  size_t numEventBlocks() const { return Blocks.size(); }

  /// Index-level statistics of one event block (no payload decode).
  struct BlockStats {
    uint64_t EventCount;  ///< Events declared by the block table.
    size_t PayloadBytes;  ///< Compressed payload size on disk.
  };

  /// Per-block statistics straight from the block table; valid after
  /// open(). Feeds `orp-trace info` without touching the payloads.
  std::vector<BlockStats> blockStats() const;

  /// Convenience: decodes the whole stream into a vector.
  [[nodiscard]] bool readAllEvents(std::vector<TraceEvent> &Out);

  /// Decodes block \p Index (CRC-checked first, like forEachEvent) into
  /// \p Out, shaped for batch injection — see traceio::DecodedBlock.
  /// Blocks are independently
  /// decodable — the writer restarts the address/time delta chains per
  /// block — which is what lets ProfileSession::replayFrom decode block
  /// N+1 on a worker while block N is being injected. \p Index must be
  /// in range. Returns false with error() set on corruption; \p Out is
  /// then empty.
  [[nodiscard]] bool decodeBlockColumns(size_t Index, DecodedBlock &Out);

  /// A still-encoded view of one event block, for forwarding the
  /// payload verbatim — e.g. as an EVENTS frame of the orp-traced wire
  /// protocol. The pointer aliases the reader's image and is valid
  /// until the next open()/openImage() or the reader's destruction,
  /// even after later payload reads release its pages (they refault
  /// with the same bytes). \p Index must be in range.
  struct RawBlock {
    const uint8_t *Payload;
    size_t PayloadLen;
    uint64_t EventCount;
    uint32_t Crc;         ///< CRC-32 declared by the block table.
    uint64_t FileOffset;  ///< Absolute byte offset of the payload.
  };
  [[nodiscard]] RawBlock rawBlock(size_t Index) const;

  /// The first error encountered, or empty.
  const std::string &error() const { return Err; }

private:
  bool failed(const std::string &Msg);
  /// Drops the current image (unmapping it) and every parse result.
  void reset(const std::string &FileName);
  /// Validates the image at [Data, Data + Size), reading it through
  /// readAt() only.
  bool parseImage();
  bool parseHeader(uint64_t &RegistryOffset);
  /// Builds Blocks from the block table payload: positions are prefix
  /// sums from kHeaderSize that must end at \p RegistryOffset.
  bool parseBlockTable(const uint8_t *Table, size_t Len,
                       uint64_t RegistryOffset);
  /// Copies image bytes [Offset, Offset + Len) into \p Buf: pread on Fd
  /// while open() validates a mapped file, else a copy from Owned.
  /// False on an I/O error or a file that shrank since it was mapped.
  bool readAt(uint64_t Offset, size_t Len, uint8_t *Buf) const;

  std::string Name;
  /// The image: Mapping when open() mapped a file, else Owned.
  const uint8_t *Data = nullptr;
  size_t Size = 0;
  void *Mapping = nullptr;
  std::vector<uint8_t> Owned;
  /// The mapped file, open only while open() validates it.
  int Fd = -1;
  TraceInfo Info;
  std::vector<trace::InstrInfo> Instrs;
  std::vector<trace::AllocSiteInfo> Sites;

  /// One event block from the block table: payload position/length and
  /// declared event count (CRC verified lazily in forEachEvent).
  struct BlockRef {
    size_t PayloadPos;
    size_t PayloadLen;
    uint64_t EventCount;
    uint32_t Crc;
  };
  std::vector<BlockRef> Blocks;
  /// The payload of block \p Index; every payload read goes through
  /// here. On a mapped image, when the block is the first to start in
  /// its 256 KiB-aligned window, it first releases the whole windows
  /// before that one; when it is the last block, it also releases the
  /// whole pages of its own window before its payload. Stateless, and
  /// the block table is immutable after open(), so replayFrom's
  /// decode-ahead worker may call it.
  const uint8_t *payloadOf(size_t Index) const;
  std::string Err;
};

} // namespace traceio
} // namespace orp

#endif // ORP_TRACEIO_TRACEREADER_H
